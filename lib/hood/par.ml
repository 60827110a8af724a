(* Every spawn below passes the worker the caller already holds
   ([Future_impl.spawn_on]) instead of reading it from domain-local
   storage again.  That worker is valid only until the caller runs
   something that may suspend — a [force], or a call of the user's
   function — since a suspended computation may resume on another
   domain.  So a spawned half reads it ([Worker.current]) once when it
   starts, because a thief may run it; the recursive descents use it
   only before their first [force] or user call; and a lazy loop that
   has just run a chunk of user calls reads it again before it
   splits. *)

(* Sequential run length between deque probes in the lazy-splitting
   loops: small enough that a loop notices an emptied deque quickly,
   large enough that the probe (one size read of the worker's own
   deque) amortizes to noise per iteration. *)
let lazy_chunk = 16

(* Lazy binary splitting (Tzannes et al., PPoPP 2010): instead of
   cutting the range down to a fixed grain eagerly — spawning ~n/grain
   tasks whether or not anyone ever steals them — split only when the
   worker's own deque is observed empty, i.e. exactly when a thief
   probing this worker would leave empty-handed.  While the deque still
   holds stealable work, run a [lazy_chunk]-sized slice sequentially and
   re-probe.  At P = 1 (or when every worker is busy) a whole range runs
   as one task with zero spawns; under steal pressure the range splits
   logarithmically, like the eager version — the grain knob disappears.

   [fresh] is false right after a chunk: its calls of [f] may have
   resumed on another domain, so [w] may name another worker.  The
   probe still reads [w]'s deque (a stale probe misjudges only when to
   split), but a split reads the current worker first and hands it on.
   At P = 1 a chunk is never followed by a split, so there only the
   spawned halves read DLS. *)
let rec lazy_for_go f lo hi w fresh =
  if hi - lo <= 1 then begin
    if hi > lo then f lo
  end
  else if Worker.local_deque_size w = 0 then begin
    let w = if fresh then w else Worker.current () in
    let mid = lo + ((hi - lo) / 2) in
    let right =
      Future_impl.spawn_on w (fun () -> lazy_for_go f mid hi (Worker.current ()) true)
    in
    lazy_for_go f lo mid w true;
    Future_impl.force right
  end
  else begin
    let stop = Int.min hi (lo + lazy_chunk) in
    for i = lo to stop - 1 do
      f i
    done;
    if stop < hi then lazy_for_go f stop hi w false
  end

let parallel_for ?grain ~lo ~hi f =
  match grain with
  | None -> if hi > lo then lazy_for_go f lo hi (Worker.current ()) true
  | Some grain ->
      if grain < 1 then invalid_arg "Par.parallel_for: grain >= 1 required";
      let leaf lo hi =
        for i = lo to hi - 1 do
          f i
        done
      in
      (* [go] runs on whichever worker calls it; [split] holds that
         worker, so only a range that splits reads it. *)
      let rec go lo hi = if hi - lo <= grain then leaf lo hi else split lo hi (Worker.current ())
      and split lo hi w =
        let mid = lo + ((hi - lo) / 2) in
        let right = Future_impl.spawn_on w (fun () -> go mid hi) in
        if mid - lo <= grain then leaf lo mid else split lo mid w;
        Future_impl.force right
      in
      if hi > lo then go lo hi

(* [lazy_reduce_go ~init ~combine map acc lo hi w fresh] is [acc]
   combined with the reduction of [lo, hi).  The accumulator is threaded
   down so the chunk branch ends in a tail call: a range that never
   splits (P = 1, or every worker busy) runs as a loop in constant
   stack, as [lazy_for_go] does.  A spawned right half starts from
   [init].  [w] and [fresh] as in [lazy_for_go]. *)
let rec lazy_reduce_go ~init ~combine map acc lo hi w fresh =
  if hi - lo <= 1 then begin
    if hi > lo then combine acc (map lo) else acc
  end
  else if Worker.local_deque_size w = 0 then begin
    let w = if fresh then w else Worker.current () in
    let mid = lo + ((hi - lo) / 2) in
    let right =
      Future_impl.spawn_on w (fun () ->
          lazy_reduce_go ~init ~combine map init mid hi (Worker.current ()) true)
    in
    let left_v = lazy_reduce_go ~init ~combine map acc lo mid w true in
    combine left_v (Future_impl.force right)
  end
  else begin
    let stop = Int.min hi (lo + lazy_chunk) in
    let acc = ref acc in
    for i = lo to stop - 1 do
      acc := combine !acc (map i)
    done;
    lazy_reduce_go ~init ~combine map !acc stop hi w false
  end

(* [map] is positional (like [parallel_for]'s body) so that [?grain] is
   erased on a grainless call — with only labelled parameters after it,
   the optional argument would never be discharged and the call would
   have type [?grain:int -> _]. *)
let parallel_reduce ?grain ~lo ~hi ~init ~combine map =
  match grain with
  | None ->
      if hi <= lo then init
      else lazy_reduce_go ~init ~combine map init lo hi (Worker.current ()) true
  | Some grain ->
      if grain < 1 then invalid_arg "Par.parallel_reduce: grain >= 1 required";
      let leaf lo hi =
        let acc = ref init in
        for i = lo to hi - 1 do
          acc := combine !acc (map i)
        done;
        !acc
      in
      (* As in [parallel_for]. *)
      let rec go lo hi = if hi - lo <= grain then leaf lo hi else split lo hi (Worker.current ())
      and split lo hi w =
        let mid = lo + ((hi - lo) / 2) in
        let right = Future_impl.spawn_on w (fun () -> go mid hi) in
        let left_v = if mid - lo <= grain then leaf lo mid else split lo mid w in
        combine left_v (Future_impl.force right)
      in
      if hi <= lo then init else go lo hi

let parallel_map_array ?grain f a =
  let n = Array.length a in
  if n = 0 then [||]
  else begin
    (* The seed element doubles as out.(0): the parallel loop starts at
       1 so [f] is applied exactly once per element (an effectful [f]
       must not see index 0 twice). *)
    let out = Array.make n (f a.(0)) in
    parallel_for ?grain ~lo:1 ~hi:n (fun i -> out.(i) <- f a.(i));
    out
  end

let rec fib_seq n = if n < 2 then n else fib_seq (n - 1) + fib_seq (n - 2)
let fib_cutoff = 12

(* [fib_on] runs on whichever worker calls it and [fib_split] holds that
   worker, as [go] and [split] do in [parallel_for]. *)
let rec fib_on n = if n <= fib_cutoff then fib_seq n else fib_split n (Worker.current ())

and fib_split n w =
  let a = Future_impl.spawn_on w (fun () -> fib_on (n - 1)) in
  let b = if n - 2 <= fib_cutoff then fib_seq (n - 2) else fib_split (n - 2) w in
  Future_impl.force a + b

let fib n =
  if n < 0 then invalid_arg "Par.fib: n >= 0 required";
  fib_on n

(* The n-queens board is three bitmasks over the columns: [cols] holds
   the occupied columns, and [d1]/[d2] the next row's squares attacked
   along the two diagonals.  [all] has the low n bits set.  The masks
   are ints, so a node allocates nothing. *)
let rec queens_seq all cols d1 d2 =
  if cols = all then 1
  else begin
    let free = ref (all land lnot (cols lor d1 lor d2)) and total = ref 0 in
    while !free <> 0 do
      let bit = !free land - !free in
      free := !free lxor bit;
      total := !total + queens_seq all (cols lor bit) ((d1 lor bit) lsl 1) ((d2 lor bit) lsr 1)
    done;
    !total
  end

(* Row [row] of the spawning rows (those below [cutoff]) on worker [w]:
   one future per safe column in [free], lowest column first.  Each
   future is forced when the recursion over the remaining columns
   returns, so in reverse spawn order, and each join finds its child
   at the bottom of the deque if no thief took it. *)
let rec queens_fork all cutoff row free cols d1 d2 w =
  if free = 0 then 0
  else begin
    let bit = free land - free in
    let next = row + 1 and cols' = cols lor bit in
    let d1' = (d1 lor bit) lsl 1 and d2' = (d2 lor bit) lsr 1 in
    let child =
      Future_impl.spawn_on w (fun () ->
          if next < cutoff then
            queens_fork all cutoff next (all land lnot (cols' lor d1' lor d2')) cols' d1' d2'
              (Worker.current ())
          else queens_seq all cols' d1' d2')
    in
    let rest = queens_fork all cutoff row (free lxor bit) cols d1 d2 w in
    rest + Future_impl.force child
  end

let nqueens n =
  if n < 1 || n > 13 then invalid_arg "Par.nqueens: 1 <= n <= 13 required";
  let all = (1 lsl n) - 1 in
  (* Rows below [cutoff] spawn; the last three rows run sequentially,
     to keep task granularity reasonable. *)
  let cutoff = Int.max 0 (n - 3) in
  if cutoff = 0 then queens_seq all 0 0 0 else queens_fork all cutoff 0 all 0 0 0 (Worker.current ())
