(** Parallel skeletons built on {!Future}: the application-level
    interface a Hood user programs against.  All functions must be called
    inside {!Pool.run}. *)

val parallel_for : ?grain:int -> lo:int -> hi:int -> (int -> unit) -> unit
(** [parallel_for ~lo ~hi f] applies [f] to [lo..hi-1].

    With [grain] omitted (the default) the range is cut by {e lazy
    binary splitting}: the loop splits (spawning the right half) only
    when the worker's own deque is observed empty — the moment a probing
    thief would find nothing to steal — and otherwise runs a small fixed
    chunk sequentially before re-probing.  At [P = 1], or while every
    worker is busy, the whole range runs with zero spawns; under steal
    pressure it splits logarithmically.  No grain tuning needed.

    With [~grain] the classic eager policy is used: recursive halving
    down to ranges of at most [grain] indices, which run serially.
    [invalid_arg] if [grain < 1]. *)

val parallel_reduce :
  ?grain:int -> lo:int -> hi:int -> init:'a -> combine:('a -> 'a -> 'a) -> (int -> 'a) -> 'a
(** [parallel_reduce ~lo ~hi ~init ~combine map] is the tree reduction
    [combine (map lo) (... (map (hi-1)))]; [combine] must be associative
    with unit [init].  Splitting policy as in {!parallel_for}: lazy
    binary splitting when [grain] is omitted, eager halving to
    [grain]-sized leaves otherwise.  [map] is positional (like
    {!parallel_for}'s body) so a grainless call discharges [?grain]. *)

val parallel_map_array : ?grain:int -> ('a -> 'b) -> 'a array -> 'b array
(** [f] is applied exactly once per element (safe for effectful [f]);
    element 0 is mapped sequentially to seed the result array.  Shares
    {!parallel_for}'s splitting policy (lazy when [grain] is omitted). *)

val fib : int -> int
(** The canonical spawn-tree microbenchmark (naive Fibonacci with a
    spawn at every internal node).  Requires [n >= 0]. *)

val nqueens : int -> int
(** Count the solutions of the n-queens problem — the irregular
    backtracking workload of the paper's motivation.  The board is three
    bitmasks (occupied columns and the two diagonals), so a node copies
    nothing.  Each of the first [max 0 (n - 3)] rows spawns one future
    per safe column, lowest column first, and forces them in reverse
    spawn order, so an unstolen child is joined inline; the last three
    rows run as a sequential bitmask search.  Requires [1 <= n <= 13]. *)
