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

   The probe must be the {e current} worker's deque: a stolen half
   re-fetches its context ([Worker.current]) when it starts, because it
   may be running on a different domain than the one that spawned it. *)
let rec lazy_for_go f lo hi w =
  if hi - lo <= 1 then begin
    if hi > lo then f lo
  end
  else if Worker.local_deque_size w = 0 then begin
    let mid = lo + ((hi - lo) / 2) in
    let right = Future.spawn (fun () -> lazy_for_go f mid hi (Worker.current ())) in
    lazy_for_go f lo mid w;
    Future.force right
  end
  else begin
    let stop = Int.min hi (lo + lazy_chunk) in
    for i = lo to stop - 1 do
      f i
    done;
    if stop < hi then lazy_for_go f stop hi w
  end

let parallel_for ?grain ~lo ~hi f =
  match grain with
  | None -> if hi > lo then lazy_for_go f lo hi (Worker.current ())
  | Some grain ->
      if grain < 1 then invalid_arg "Par.parallel_for: grain >= 1 required";
      let rec go lo hi =
        if hi - lo <= grain then
          for i = lo to hi - 1 do
            f i
          done
        else begin
          let mid = lo + ((hi - lo) / 2) in
          let right = Future.spawn (fun () -> go mid hi) in
          go lo mid;
          Future.force right
        end
      in
      if hi > lo then go lo hi

(* [lazy_reduce_go ~init ~combine map acc lo hi w] is [acc] combined
   with the reduction of [lo, hi).  The accumulator is threaded down so
   the chunk branch ends in a tail call: a range that never splits (P =
   1, or every worker busy) runs as a loop in constant stack, as
   [lazy_for_go] does.  A spawned right half starts from [init]. *)
let rec lazy_reduce_go ~init ~combine map acc lo hi w =
  if hi - lo <= 1 then begin
    if hi > lo then combine acc (map lo) else acc
  end
  else if Worker.local_deque_size w = 0 then begin
    let mid = lo + ((hi - lo) / 2) in
    let right =
      Future.spawn (fun () -> lazy_reduce_go ~init ~combine map init mid hi (Worker.current ()))
    in
    let left_v = lazy_reduce_go ~init ~combine map acc lo mid w in
    combine left_v (Future.force right)
  end
  else begin
    let stop = Int.min hi (lo + lazy_chunk) in
    let acc = ref acc in
    for i = lo to stop - 1 do
      acc := combine !acc (map i)
    done;
    lazy_reduce_go ~init ~combine map !acc stop hi w
  end

(* [map] is positional (like [parallel_for]'s body) so that [?grain] is
   erased on a grainless call — with only labelled parameters after it,
   the optional argument would never be discharged and the call would
   have type [?grain:int -> _]. *)
let parallel_reduce ?grain ~lo ~hi ~init ~combine map =
  match grain with
  | None ->
      if hi <= lo then init else lazy_reduce_go ~init ~combine map init lo hi (Worker.current ())
  | Some grain ->
      if grain < 1 then invalid_arg "Par.parallel_reduce: grain >= 1 required";
      let rec go lo hi =
        if hi - lo <= grain then begin
          let acc = ref init in
          for i = lo to hi - 1 do
            acc := combine !acc (map i)
          done;
          !acc
        end
        else begin
          let mid = lo + ((hi - lo) / 2) in
          let right = Future.spawn (fun () -> go mid hi) in
          let left_v = go lo mid in
          combine left_v (Future.force right)
        end
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

let fib n =
  if n < 0 then invalid_arg "Par.fib: n >= 0 required";
  let cutoff = 12 in
  let rec go n =
    if n <= cutoff then fib_seq n
    else
      let a, b = Future.both (fun () -> go (n - 1)) (fun () -> go (n - 2)) in
      a + b
  in
  go n

let nqueens n =
  if n < 1 || n > 13 then invalid_arg "Par.nqueens: 1 <= n <= 13 required";
  (* [placement] is the partial assignment, one column per placed row. *)
  let safe placement col =
    let row = Array.length placement in
    let ok = ref true in
    Array.iteri
      (fun r c -> if c = col || abs (c - col) = row - r then ok := false)
      placement;
    !ok
  in
  let cutoff = Int.max 0 (n - 3) in
  let rec count placement =
    let row = Array.length placement in
    if row = n then 1
    else if row >= cutoff then begin
      (* Sequential tail to keep task granularity reasonable. *)
      let total = ref 0 in
      for col = 0 to n - 1 do
        if safe placement col then total := !total + count (Array.append placement [| col |])
      done;
      !total
    end
    else begin
      let futures = ref [] in
      for col = 0 to n - 1 do
        if safe placement col then begin
          let child = Array.append placement [| col |] in
          futures := Future.spawn (fun () -> count child) :: !futures
        end
      done;
      List.fold_left (fun acc fut -> acc + Future.force fut) 0 !futures
    end
  in
  count [||]
