(* Tests for the Hood runtime: correctness of results against sequential
   oracles, exception propagation, pool lifecycle, and a concurrent
   conservation stress of the underlying atomic deque. *)

open Abp_hood
module Counters = Abp_trace.Counters

let with_pool ~processes f =
  let pool = Pool.create ~processes () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

let rec fib_seq n = if n < 2 then n else fib_seq (n - 1) + fib_seq (n - 2)

let fib_matches_sequential () =
  with_pool ~processes:3 (fun pool ->
      List.iter
        (fun n ->
          let got = Pool.run pool (fun () -> Par.fib n) in
          Alcotest.(check int) (Printf.sprintf "fib %d" n) (fib_seq n) got)
        [ 0; 1; 10; 18; 22 ])

let parallel_for_covers_range () =
  with_pool ~processes:4 (fun pool ->
      let n = 10_000 in
      let hits = Array.make n 0 in
      Pool.run pool (fun () -> Par.parallel_for ~grain:16 ~lo:0 ~hi:n (fun i -> hits.(i) <- hits.(i) + 1));
      Alcotest.(check bool) "every index exactly once" true (Array.for_all (fun c -> c = 1) hits))

let parallel_for_empty_range () =
  with_pool ~processes:2 (fun pool ->
      let touched = ref false in
      Pool.run pool (fun () -> Par.parallel_for ~lo:5 ~hi:5 (fun _ -> touched := true));
      Alcotest.(check bool) "no iterations" false !touched)

let parallel_reduce_sum () =
  with_pool ~processes:4 (fun pool ->
      let n = 100_000 in
      let got =
        Pool.run pool (fun () ->
            Par.parallel_reduce ~grain:64 ~lo:0 ~hi:n ~init:0 ~combine:( + ) (fun i -> i))
      in
      Alcotest.(check int) "sum 0..n-1" (n * (n - 1) / 2) got)

let parallel_map_matches () =
  with_pool ~processes:3 (fun pool ->
      let input = Array.init 5_000 (fun i -> i) in
      let got = Pool.run pool (fun () -> Par.parallel_map_array ~grain:32 (fun x -> (x * x) + 1) input) in
      let want = Array.map (fun x -> (x * x) + 1) input in
      Alcotest.(check (array int)) "map" want got)

(* Regression: parallel_map_array used to apply [f] to a.(0) twice (once
   to seed the output array, once in the parallel loop), which is wrong
   for effectful [f]. *)
let parallel_map_applies_f_exactly_once () =
  with_pool ~processes:3 (fun pool ->
      let n = 1_000 in
      let applications = Array.init n (fun _ -> Atomic.make 0) in
      let input = Array.init n (fun i -> i) in
      let got =
        Pool.run pool (fun () ->
            Par.parallel_map_array ~grain:16
              (fun x ->
                Atomic.incr applications.(x);
                x * 2)
              input)
      in
      Alcotest.(check (array int)) "mapped values" (Array.map (fun x -> x * 2) input) got;
      Alcotest.(check bool) "f applied exactly once per element (incl. index 0)" true
        (Array.for_all (fun c -> Atomic.get c = 1) applications))

let parallel_map_singleton () =
  with_pool ~processes:2 (fun pool ->
      let calls = ref 0 in
      let got =
        Pool.run pool (fun () ->
            Par.parallel_map_array
              (fun x ->
                incr calls;
                x + 1)
              [| 41 |])
      in
      Alcotest.(check (array int)) "singleton mapped" [| 42 |] got;
      Alcotest.(check int) "one application" 1 !calls)

(* Independent n-queens oracle: the diagonals are indexed by [r + c]
   and [r - c + n - 1] instead of shifted along with the rows.
   [nodes.(k)] counts the safe placements of rows [0 .. k - 1], so
   [nodes.(0) = 1] and [nodes.(n)] is the solution count. *)
let queens_nodes n =
  let nodes = Array.make (n + 1) 0 in
  let rec place r cols diag anti =
    nodes.(r) <- nodes.(r) + 1;
    if r < n then
      for c = 0 to n - 1 do
        let cb = 1 lsl c and db = 1 lsl (r + c) and ab = 1 lsl (r - c + n - 1) in
        if cols land cb = 0 && diag land db = 0 && anti land ab = 0 then
          place (r + 1) (cols lor cb) (diag lor db) (anti lor ab)
      done
  in
  place 0 0 0 0;
  nodes

let nqueens_known_counts () =
  with_pool ~processes:4 (fun pool ->
      List.iter
        (fun (n, want) -> Alcotest.(check int) (Printf.sprintf "oracle %d" n) want (queens_nodes n).(n))
        [ (1, 1); (4, 2); (6, 4); (8, 92) ];
      for n = 1 to 11 do
        let got = Pool.run pool (fun () -> Par.nqueens n) in
        Alcotest.(check int) (Printf.sprintf "nqueens %d" n) (queens_nodes n).(n) got
      done;
      List.iter
        (fun n ->
          Alcotest.check_raises (Printf.sprintf "nqueens %d rejected" n)
            (Invalid_argument "Par.nqueens: 1 <= n <= 13 required") (fun () ->
              ignore (Pool.run pool (fun () -> Par.nqueens n))))
        [ 0; 14 ])

(* The spawn tree: one future per safe placement of rows 1 .. n - 3
   (253 for n = 7), each joined inline at P = 1. *)
let nqueens_spawn_tree deque_impl () =
  let n = 7 in
  let nodes = queens_nodes n in
  let want = ref 0 in
  for k = 1 to n - 3 do
    want := !want + nodes.(k)
  done;
  Alcotest.(check int) "oracle: spawning placements" 253 !want;
  let pool = Pool.create ~processes:1 ~deque_impl () in
  let got =
    Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> Pool.run pool (fun () -> Par.nqueens n))
  in
  Alcotest.(check int) "nqueens 7" nodes.(n) got;
  let t = Counters.sum (Pool.counters pool) in
  Alcotest.(check int) "one push per spawning placement" !want (Counters.get t Counters.pushes);
  Alcotest.(check int) "pushes = pops" !want (Counters.get t Counters.pops)

(* The board is three ints: a call allocates only the spawn tree's
   futures and closures (about 6.6k words; 42.5k when every node
   copied the board). *)
let nqueens_allocation () =
  with_pool ~processes:1 (fun pool ->
      let words =
        Pool.run pool (fun () ->
            let before = Gc.minor_words () in
            ignore (Sys.opaque_identity (Par.nqueens 7));
            Gc.minor_words () -. before)
      in
      if words > 12_000. then Alcotest.failf "Par.nqueens 7 allocates %.0f minor words (> 12000)" words)

(* The owner path stores the task itself: a push and its work-first pop
   allocate nothing (4 words per pair when the deque boxed the task in
   an option and the pop's outcome in a variant).  Word counts repeat
   exactly, so these are exact bounds. *)
let owner_path_allocation () =
  with_pool ~processes:1 (fun pool ->
      let words =
        Pool.run pool (fun () ->
            let w = Worker.current () in
            let task () = () in
            let before = Gc.minor_words () in
            for _ = 1 to 10_000 do
              Worker.push_task w task;
              if not (Worker.pop_own w task) then failwith "pop_own missed its own task"
            done;
            Gc.minor_words () -. before)
      in
      Alcotest.(check (float 0.)) "minor words of 10,000 push_task + pop_own pairs" 0. words)

(* A non-capturing spawn joined inline at P = 1: the cell, the task
   closure, the future record and the published [Value], 12 words (16
   with the deque's two boxes). *)
let spawn_force_allocation () =
  with_pool ~processes:1 (fun pool ->
      let n = 10_000 in
      let words =
        Pool.run pool (fun () ->
            let before = Gc.minor_words () in
            for _ = 1 to n do
              Future.force (Future.spawn ignore)
            done;
            Gc.minor_words () -. before)
      in
      let per_op = words /. float_of_int n in
      if per_op > 12. then Alcotest.failf "spawn+force allocates %.2f words per op (> 12)" per_op)

let exceptions_propagate () =
  with_pool ~processes:2 (fun pool ->
      let exception Boom in
      match
        Pool.run pool (fun () ->
            let fut = Future.spawn (fun () -> raise Boom) in
            Future.force fut)
      with
      | _ -> Alcotest.fail "expected exception"
      | exception Boom -> ())

let future_both () =
  with_pool ~processes:2 (fun pool ->
      let a, b = Pool.run pool (fun () -> Future.both (fun () -> 6 * 7) (fun () -> "ok")) in
      Alcotest.(check int) "left" 42 a;
      Alcotest.(check string) "right" "ok" b)

let run_outside_worker_rejected () =
  Alcotest.check_raises "spawn outside run"
    (Failure "Hood: not inside a pool worker (use Pool.run)") (fun () ->
      ignore (Future.spawn (fun () -> 1)))

let sequential_pool_works () =
  with_pool ~processes:1 (fun pool ->
      let got = Pool.run pool (fun () -> Par.fib 15) in
      Alcotest.(check int) "fib 15 on P=1" (fib_seq 15) got)

let shutdown_idempotent () =
  let pool = Pool.create ~processes:2 () in
  Pool.shutdown pool;
  Pool.shutdown pool;
  Alcotest.(check bool) "no crash" true true

let steals_happen_with_multiple_processes () =
  with_pool ~processes:4 (fun pool ->
      ignore (Pool.run pool (fun () -> Par.fib 24));
      (* On a timesliced single-CPU box steals still occur because domains
         are preempted mid-subtree; but don't require a minimum count,
         just consistency. *)
      Alcotest.(check bool) "attempts >= successes" true
        (Pool.steal_attempts pool >= Pool.successful_steals pool))

(* Conservation stress of the atomic deque under real domain concurrency:
   one owner pushes/pops, thieves steal; every value is consumed exactly
   once.  [bot] is an absolute index in the ABP deque, so the capacity
   covers all pushes. *)
let atomic_deque_conservation =
  Test_deque.concurrent_conservation (module Abp_deque.Atomic_deque) ~capacity:(1 lsl 15)

let all_deque_impls_compute_fib () =
  List.iter
    (fun (name, deque_impl) ->
      let pool = Pool.create ~processes:3 ~deque_impl () in
      Fun.protect
        ~finally:(fun () -> Pool.shutdown pool)
        (fun () ->
          let got = Pool.run pool (fun () -> Par.fib 20) in
          Alcotest.(check int) (name ^ " fib 20") (fib_seq 20) got))
    [ ("abp", Pool.Abp); ("circular", Pool.Circular); ("locked", Pool.Locked) ]

(* Every steal moves exactly one task on each backend, so at quiescence
   the conservation law holds with [stolen_tasks = successful_steals]
   and every steal attempt is classified. *)
let one_task_per_steal deque_impl () =
  let pool = Pool.create ~processes:4 ~deque_impl () in
  let got =
    Fun.protect
      ~finally:(fun () -> Pool.shutdown pool)
      (fun () -> Pool.run pool (fun () -> Par.fib 24))
  in
  Alcotest.(check int) "fib 24" (fib_seq 24) got;
  let t = Counters.sum (Pool.counters pool) in
  let get = Counters.get t in
  Alcotest.(check int) "pushes = pops + stolen_tasks" (get Counters.pushes)
    (get Counters.pops + get Counters.stolen_tasks);
  Alcotest.(check int) "one task per steal" (get Counters.successful_steals)
    (get Counters.stolen_tasks);
  Alcotest.(check bool) "breakdown complete" true (Counters.complete t)

(* [steal_from] is the external steal: one task per call off the
   victim's deque top — the oldest first — [None] once the deque is
   empty, and none of the pool's own steal counters move. *)
let steal_from_takes_oldest deque_impl () =
  let pool = Pool.create ~processes:1 ~deque_impl () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      Pool.run pool (fun () ->
          let w = Worker.current () in
          let tasks = List.init 3 (fun _ -> fun () -> ()) in
          List.iter (Worker.push_task w) tasks;
          List.iteri
            (fun i task ->
              match Pool.steal_from pool ~victim:0 with
              | Some got ->
                  Alcotest.(check bool)
                    (Printf.sprintf "steal %d is push %d" i i)
                    true (got == task)
              | None -> Alcotest.failf "steal %d came back empty" i)
            tasks;
          Alcotest.(check bool) "empty deque yields nothing" true
            (Option.is_none (Pool.steal_from pool ~victim:0))));
  let t = Counters.sum (Pool.counters pool) in
  Alcotest.(check int) "pushes counted" 3 (Counters.get t Counters.pushes);
  List.iter
    (fun (name, id) -> Alcotest.(check int) (name ^ " untouched") 0 (Counters.get t id))
    [
      ("steal_attempts", Counters.steal_attempts);
      ("successful_steals", Counters.successful_steals);
      ("stolen_tasks", Counters.stolen_tasks);
    ]

(* The [run] caller never pops its deque between runs, so its first
   step is to run that deque empty: the final empty pop resets the Abp
   deque's indices.  Each run here spawns a future it never forces (at
   P = 2 the peer usually steals it); twelve runs must fit a four-slot
   deque.  A last empty run drains what the twelfth left, after which
   every push is accounted for. *)
let unforced_spawns_do_not_creep processes () =
  let pool = Pool.create ~processes ~deque_capacity:4 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      for i = 1 to 12 do
        Pool.run pool (fun () -> ignore (Future.spawn (fun () -> i)))
      done;
      Pool.run pool ignore);
  let t = Counters.sum (Pool.counters pool) in
  Alcotest.(check int) "pushes" 12 (Counters.get t Counters.pushes);
  Alcotest.(check int) "pushes = pops + stolen_tasks" 12
    (Counters.get t Counters.pops + Counters.get t Counters.stolen_tasks)

(* Ten spawns into four-slot deques: the fixed-array Abp deque
   overflows and [run] re-raises; the growable Circular and Locked
   deques compute the sum.  Either way the pool stays usable. *)
let overflow_leaves_pool_usable deque_impl processes () =
  let pool = Pool.create ~processes ~deque_capacity:4 ~deque_impl () in
  let sum n () =
    let fs = List.init n (fun i -> Future.spawn (fun () -> i)) in
    List.fold_left (fun acc f -> acc + Future.force f) 0 fs
  in
  (match deque_impl with
  | Pool.Abp ->
      Alcotest.check_raises "ten spawns overflow" (Failure "Atomic_deque: overflow") (fun () ->
          ignore (Pool.run pool (sum 10)))
  | Pool.Circular | Pool.Locked ->
      Alcotest.(check int) "ten spawns fit" 45 (Pool.run pool (sum 10)));
  Alcotest.(check int) "next run" 3 (Pool.run pool (sum 3));
  Pool.shutdown pool

(* A task the last [run] spawned and never forced still runs at
   [shutdown].  At P = 2 the peer first steals a blocker that keeps it
   busy for 50 ms, so that only the shutdown drain can run the task. *)
let shutdown_runs_unforced_task processes () =
  let pool = Pool.create ~processes () in
  let ran = Atomic.make false and blocker_started = Atomic.make false in
  Pool.run pool (fun () ->
      if processes > 1 then begin
        ignore
          (Future.spawn (fun () ->
               Atomic.set blocker_started true;
               let t0 = Unix.gettimeofday () in
               while Unix.gettimeofday () -. t0 < 0.05 do
                 Domain.cpu_relax ()
               done));
        let t0 = Unix.gettimeofday () in
        while (not (Atomic.get blocker_started)) && Unix.gettimeofday () -. t0 < 30. do
          Domain.cpu_relax ()
        done;
        Alcotest.(check bool) "the peer runs the blocker" true (Atomic.get blocker_started)
      end;
      ignore (Future.spawn (fun () -> Atomic.set ran true)));
  Pool.shutdown pool;
  Alcotest.(check bool) "the unforced task ran" true (Atomic.get ran);
  Alcotest.(check int) "worker 0's deque is empty" 0 (Pool.deque_size pool 0);
  let t = Counters.sum (Pool.counters pool) in
  Alcotest.(check int) "pushes = pops + stolen_tasks" (Counters.get t Counters.pushes)
    (Counters.get t Counters.pops + Counters.get t Counters.stolen_tasks)

let shutdown_reraises_drained_exception () =
  let exception Boom in
  let pool = Pool.create ~processes:1 () in
  (* A raw task: a future would capture the exception in its cell. *)
  Pool.run pool (fun () -> Worker.push_task (Worker.current ()) (fun () -> raise Boom));
  Alcotest.check_raises "shutdown re-raises" Boom (fun () -> Pool.shutdown pool);
  Pool.shutdown pool

let create_validation () =
  Alcotest.check_raises "processes = 0 rejected"
    (Invalid_argument "Pool.create: processes >= 1 required") (fun () ->
      ignore (Pool.create ~processes:0 ()));
  Alcotest.check_raises "trace width mismatch rejected"
    (Invalid_argument "Pool.create: trace sink must have one worker per process") (fun () ->
      ignore (Pool.create ~processes:2 ~trace:(Abp_trace.Sink.create ~workers:3 ()) ()))

(* An associative but non-commutative monoid over index intervals:
   combining [i, j) with [j, k) gives [i, k), anything out of order is
   [Disordered].  A reduction that permutes or drops an element cannot
   come out as the full interval. *)
type span = Empty | Span of int * int | Disordered

let span_combine a b =
  match (a, b) with
  | Empty, x | x, Empty -> x
  | Span (i, j), Span (j', k) when j = j' -> Span (i, k)
  | _ -> Disordered

let parallel_reduce_keeps_order () =
  let n = 20_000 in
  List.iter
    (fun (name, deque_impl) ->
      List.iter
        (fun processes ->
          let pool = Pool.create ~processes ~deque_impl () in
          Fun.protect
            ~finally:(fun () -> Pool.shutdown pool)
            (fun () ->
              List.iter
                (fun grain ->
                  let got =
                    Pool.run pool (fun () ->
                        Par.parallel_reduce ?grain ~lo:0 ~hi:n ~init:Empty
                          ~combine:span_combine (fun i -> Span (i, i + 1)))
                  in
                  let label =
                    Printf.sprintf "%s P=%d grain %s" name processes
                      (match grain with None -> "lazy" | Some g -> string_of_int g)
                  in
                  Alcotest.(check bool) label true (got = Span (0, n)))
                [ None; Some 64 ]))
        [ 1; 2 ])
    [ ("abp", Pool.Abp); ("circular", Pool.Circular); ("locked", Pool.Locked) ]

let circular_impl_survives_deep_spawns () =
  (* The ABP deque would need capacity planning here; the circular one
     grows on demand from a tiny initial buffer. *)
  let pool = Pool.create ~processes:2 ~deque_capacity:2 ~deque_impl:Pool.Circular () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let n = 50_000 in
      let got =
        Pool.run pool (fun () ->
            Par.parallel_reduce ~grain:8 ~lo:0 ~hi:n ~init:0 ~combine:( + ) (fun i ->
                i land 3))
      in
      let want = ref 0 in
      for i = 0 to n - 1 do
        want := !want + (i land 3)
      done;
      Alcotest.(check int) "deep spawn reduce" !want got)

let central_pool_fib_matches () =
  let pool = Central_pool.create ~processes:3 () in
  Fun.protect
    ~finally:(fun () -> Central_pool.shutdown pool)
    (fun () ->
      List.iter
        (fun n ->
          let got = Central_pool.run pool (fun () -> Central_pool.fib pool n) in
          Alcotest.(check int) (Printf.sprintf "central fib %d" n) (fib_seq n) got)
        [ 0; 10; 20 ];
      Alcotest.(check bool) "lock acquisitions counted" true
        (Central_pool.lock_acquisitions pool > 0))

let central_pool_exceptions () =
  let pool = Central_pool.create ~processes:2 () in
  Fun.protect
    ~finally:(fun () -> Central_pool.shutdown pool)
    (fun () ->
      let exception Boom in
      match
        Central_pool.run pool (fun () ->
            Central_pool.force pool (Central_pool.spawn pool (fun () -> raise Boom)))
      with
      | _ -> Alcotest.fail "expected exception"
      | exception Boom -> ())

let central_vs_ws_lock_surface () =
  (* Work-sharing funnels all coordination through one lock: every spawn
     takes it once to add the task and once more when some domain takes
     the task out.  The work stealer's lock surface is zero
     (non-blocking deques). *)
  let n = 24 and cutoff = 12 in
  let rec spawns n = if n <= cutoff then 0 else 1 + spawns (n - 1) + spawns (n - 2) in
  let acquisitions processes =
    let central = Central_pool.create ~processes () in
    let c =
      Fun.protect
        ~finally:(fun () -> Central_pool.shutdown central)
        (fun () -> Central_pool.run central (fun () -> Central_pool.fib central n))
    in
    Alcotest.(check int) (Printf.sprintf "same value at P = %d" processes) (fib_seq n) c;
    Central_pool.lock_acquisitions central
  in
  (* At P = 1 a pending future's task is always still queued, so every
     take finds a task: the ledger is exact.  At P = 3 idle workers'
     empty polls take the lock too. *)
  Alcotest.(check int) "P = 1: one add and one take per spawn" (2 * spawns n) (acquisitions 1);
  let a3 = acquisitions 3 in
  if a3 < 2 * spawns n then
    Alcotest.failf "P = 3: %d acquisitions < 2 x %d spawns" a3 (spawns n)

(* --- Central_pool as an external-submission baseline ------------------ *)

(* spawn is callable from a domain that is not a pool worker (no run, no
   DLS context): the work-sharing counterpart of Shard.submit. *)
let central_pool_external_spawn () =
  let pool = Central_pool.create ~processes:3 () in
  Fun.protect
    ~finally:(fun () -> Central_pool.shutdown pool)
    (fun () ->
      let futures = List.init 32 (fun i -> Central_pool.spawn pool (fun () -> i * i)) in
      List.iteri
        (fun i fut ->
          Alcotest.(check int) (Printf.sprintf "task %d" i) (i * i)
            (Central_pool.force pool fut))
        futures)

(* Several non-worker domains submitting concurrently, each awaiting its
   own futures; the pool's workers plus the forcing submitters drain the
   shared queue. *)
let central_pool_multi_domain_submitters () =
  let pool = Central_pool.create ~processes:2 () in
  Fun.protect
    ~finally:(fun () -> Central_pool.shutdown pool)
    (fun () ->
      let submitter d () =
        let futures = List.init 50 (fun i -> Central_pool.spawn pool (fun () -> (d * 1000) + i)) in
        List.fold_left (fun acc fut -> acc + Central_pool.force pool fut) 0 futures
      in
      let ds = Array.init 3 (fun d -> Domain.spawn (submitter d)) in
      let got = Array.fold_left (fun acc d -> acc + Domain.join d) 0 ds in
      let want =
        let sum = ref 0 in
        for d = 0 to 2 do
          for i = 0 to 49 do
            sum := !sum + (d * 1000) + i
          done
        done;
        !sum
      in
      Alcotest.(check int) "all externally submitted tasks ran" want got)

(* Shutdown with tasks still queued: deterministic at P=1, where the pool
   has no worker domains and externally spawned tasks can only run inside
   force.  Shutdown must return promptly, abandon the queue, and refuse
   new spawns. *)
let central_pool_shutdown_while_pending () =
  let pool = Central_pool.create ~processes:1 () in
  let futures = List.init 10 (fun i -> Central_pool.spawn pool (fun () -> i)) in
  Alcotest.(check int) "all tasks pending" 10 (Central_pool.queued_tasks pool);
  Alcotest.(check bool) "nothing resolved yet" false
    (List.exists Central_pool.is_resolved futures);
  Central_pool.shutdown pool;
  Central_pool.shutdown pool;
  Alcotest.(check int) "queue abandoned, not drained" 10 (Central_pool.queued_tasks pool);
  Alcotest.(check bool) "abandoned futures stay unresolved" false
    (List.exists Central_pool.is_resolved futures);
  Alcotest.check_raises "spawn after shutdown rejected"
    (Failure "Central_pool.spawn: pool is shut down") (fun () ->
      ignore (Central_pool.spawn pool (fun () -> 0)))

(* Shutdown with worker domains racing a half-drained queue: whatever was
   started finishes, shutdown returns, and resolved futures hold correct
   values. *)
let central_pool_shutdown_race () =
  let pool = Central_pool.create ~processes:3 () in
  let futures = List.init 200 (fun i -> Central_pool.spawn pool (fun () -> i + 1)) in
  Central_pool.shutdown pool;
  List.iteri
    (fun i fut ->
      if Central_pool.is_resolved fut then
        Alcotest.(check int) (Printf.sprintf "resolved task %d" i) (i + 1)
          (Central_pool.force pool fut))
    futures

(* Lazy splitting must compute exactly what the eager policies compute. *)
let lazy_parallel_for_correct () =
  let pool = Pool.create ~processes:4 ~deque_impl:Pool.Circular () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      Pool.run pool (fun () ->
          let n = 10_000 in
          let lazy_out = Array.make n 0 and eager_out = Array.make n 0 in
          Par.parallel_for ~lo:0 ~hi:n (fun i -> lazy_out.(i) <- (i * 3) + 1);
          Par.parallel_for ~grain:64 ~lo:0 ~hi:n (fun i -> eager_out.(i) <- (i * 3) + 1);
          Alcotest.(check bool) "lazy = eager element-wise" true (lazy_out = eager_out);
          let lazy_sum =
            Par.parallel_reduce ~lo:0 ~hi:n ~init:0 ~combine:( + ) (fun i -> i land 15)
          in
          let eager_sum =
            Par.parallel_reduce ~grain:64 ~lo:0 ~hi:n ~init:0 ~combine:( + ) (fun i -> i land 15)
          in
          Alcotest.(check int) "lazy reduce = eager reduce" eager_sum lazy_sum;
          let mapped = Par.parallel_map_array (fun x -> x * x) (Array.init 1000 Fun.id) in
          Alcotest.(check bool) "lazy map_array correct" true
            (mapped = Array.init 1000 (fun i -> i * i));
          (* Empty and single-element ranges. *)
          Par.parallel_for ~lo:5 ~hi:5 (fun _ -> Alcotest.fail "empty range ran");
          let one = ref 0 in
          Par.parallel_for ~lo:7 ~hi:8 (fun i -> one := i);
          Alcotest.(check int) "singleton range" 7 !one))

let spin_until ?(timeout = 10.) pred =
  let t0 = Unix.gettimeofday () in
  while (not (pred ())) && Unix.gettimeofday () -. t0 < timeout do
    Domain.cpu_relax ()
  done;
  pred ()

(* A lazy loop body that suspends may resume on another worker.  When
   the loop next splits, it must push onto the deque of the worker it
   is on now: the deque is owner-only.  At P = 2, body 0 of a 64-index
   loop awaits a promise that a task on worker 1 fulfils, so it resumes
   on worker 1.  Meanwhile a task on worker 0 takes the loop's right
   half off worker 0's deque and then keeps worker 0 busy, so that the
   resumed loop finds an empty deque after its first chunk and splits.
   Body 16, the first one after that split, checks where the new right
   half went. *)
let lazy_split_after_migration loop () =
  let pool = Pool.create ~processes:2 () in
  let p = Abp_fiber.Fiber.Promise.create () in
  let x_started = Atomic.make false and half_taken = Atomic.make false in
  let checked = Atomic.make false and resumed_on = Atomic.make None in
  let sizes = Atomic.make (-1, -1) and ran = Array.make 64 0 in
  let body i =
    ran.(i) <- ran.(i) + 1;
    if i = 0 then begin
      Worker.push_task (Worker.current ()) (fun () ->
          let half = Pool.steal_from pool ~victim:0 in
          Atomic.set half_taken true;
          ignore (spin_until (fun () -> Atomic.get checked));
          Option.iter (fun task -> task ()) half);
      Abp_fiber.Fiber.Promise.await p;
      Atomic.set resumed_on (Worker.self_id ())
    end
    else if i = 16 then begin
      Atomic.set sizes (Pool.deque_size pool 0, Pool.deque_size pool 1);
      Atomic.set checked true
    end
  in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      Pool.run pool (fun () ->
          ignore
            (Future.spawn (fun () ->
                 Atomic.set x_started true;
                 ignore (spin_until (fun () -> Atomic.get half_taken));
                 Abp_fiber.Fiber.Promise.fulfil p ()));
          Alcotest.(check bool) "worker 1 runs the fulfiller" true
            (spin_until (fun () -> Atomic.get x_started));
          loop body));
  Alcotest.(check (option int)) "body 0 resumed on worker 1" (Some 1) (Atomic.get resumed_on);
  Alcotest.(check (pair int int)) "the split pushed onto worker 1's deque" (0, 1) (Atomic.get sizes);
  Alcotest.(check bool) "every body ran once" true (Array.for_all (fun c -> c = 1) ran)

let tests =
  [
    Alcotest.test_case "fib matches sequential" `Quick fib_matches_sequential;
    Alcotest.test_case "parallel_for covers range" `Quick parallel_for_covers_range;
    Alcotest.test_case "parallel_for empty range" `Quick parallel_for_empty_range;
    Alcotest.test_case "parallel_reduce sum" `Quick parallel_reduce_sum;
    Alcotest.test_case "parallel_reduce keeps order" `Quick parallel_reduce_keeps_order;
    Alcotest.test_case "parallel_map" `Quick parallel_map_matches;
    Alcotest.test_case "parallel_map: f exactly once (effectful)" `Quick
      parallel_map_applies_f_exactly_once;
    Alcotest.test_case "parallel_map: singleton" `Quick parallel_map_singleton;
    Alcotest.test_case "nqueens known counts" `Quick nqueens_known_counts;
    Alcotest.test_case "nqueens spawn tree (abp)" `Quick (nqueens_spawn_tree Pool.Abp);
    Alcotest.test_case "nqueens spawn tree (circular)" `Quick (nqueens_spawn_tree Pool.Circular);
    Alcotest.test_case "nqueens spawn tree (locked)" `Quick (nqueens_spawn_tree Pool.Locked);
    Alcotest.test_case "nqueens allocation bound" `Quick nqueens_allocation;
    Alcotest.test_case "push_task + pop_own allocate nothing" `Quick owner_path_allocation;
    Alcotest.test_case "spawn+force allocates at most 12 words" `Quick spawn_force_allocation;
    Alcotest.test_case "exceptions propagate" `Quick exceptions_propagate;
    Alcotest.test_case "future both" `Quick future_both;
    Alcotest.test_case "spawn outside run rejected" `Quick run_outside_worker_rejected;
    Alcotest.test_case "P=1 pool" `Quick sequential_pool_works;
    Alcotest.test_case "shutdown idempotent" `Quick shutdown_idempotent;
    Alcotest.test_case "steal counters consistent" `Quick steals_happen_with_multiple_processes;
    Alcotest.test_case "atomic deque conservation (concurrent)" `Quick atomic_deque_conservation;
    Alcotest.test_case "all deque impls: fib" `Quick all_deque_impls_compute_fib;
    Alcotest.test_case "circular impl: deep spawns, tiny buffer" `Quick
      circular_impl_survives_deep_spawns;
    Alcotest.test_case "lazy splitting computes eager answers" `Quick lazy_parallel_for_correct;
    Alcotest.test_case "lazy parallel_for splits where a body resumed" `Quick
      (lazy_split_after_migration (fun body -> Par.parallel_for ~lo:0 ~hi:64 body));
    Alcotest.test_case "lazy parallel_reduce splits where a body resumed" `Quick
      (lazy_split_after_migration (fun body ->
           ignore
             (Par.parallel_reduce ~lo:0 ~hi:64 ~init:0 ~combine:( + ) (fun i ->
                  body i;
                  i))));
    Alcotest.test_case "circular pool: one task per steal" `Quick
      (one_task_per_steal Pool.Circular);
    Alcotest.test_case "locked pool: one task per steal" `Quick (one_task_per_steal Pool.Locked);
    Alcotest.test_case "steal_from takes the oldest task (abp)" `Quick
      (steal_from_takes_oldest Pool.Abp);
    Alcotest.test_case "steal_from takes the oldest task (circular)" `Quick
      (steal_from_takes_oldest Pool.Circular);
    Alcotest.test_case "steal_from takes the oldest task (locked)" `Quick
      (steal_from_takes_oldest Pool.Locked);
    Alcotest.test_case "create validation" `Quick create_validation;
    Alcotest.test_case "shutdown runs an unforced task (P=1)" `Quick
      (shutdown_runs_unforced_task 1);
    Alcotest.test_case "shutdown runs an unforced task (P=2)" `Quick
      (shutdown_runs_unforced_task 2);
    Alcotest.test_case "shutdown re-raises a drained task's exception" `Quick
      shutdown_reraises_drained_exception;
    Alcotest.test_case "run caller's deque resets between runs (P=1)" `Quick
      (unforced_spawns_do_not_creep 1);
    Alcotest.test_case "run caller's deque resets between runs (P=2)" `Quick
      (unforced_spawns_do_not_creep 2);
    Alcotest.test_case "overflow leaves the pool usable (abp, P=1)" `Quick
      (overflow_leaves_pool_usable Pool.Abp 1);
    Alcotest.test_case "overflow leaves the pool usable (abp, P=2)" `Quick
      (overflow_leaves_pool_usable Pool.Abp 2);
    Alcotest.test_case "overflow leaves the pool usable (circular, P=1)" `Quick
      (overflow_leaves_pool_usable Pool.Circular 1);
    Alcotest.test_case "overflow leaves the pool usable (circular, P=2)" `Quick
      (overflow_leaves_pool_usable Pool.Circular 2);
    Alcotest.test_case "overflow leaves the pool usable (locked, P=1)" `Quick
      (overflow_leaves_pool_usable Pool.Locked 1);
    Alcotest.test_case "overflow leaves the pool usable (locked, P=2)" `Quick
      (overflow_leaves_pool_usable Pool.Locked 2);
    Alcotest.test_case "central pool: fib" `Quick central_pool_fib_matches;
    Alcotest.test_case "central pool: exceptions" `Quick central_pool_exceptions;
    Alcotest.test_case "central pool: lock surface" `Quick central_vs_ws_lock_surface;
    Alcotest.test_case "central pool: external spawn (non-worker domain)" `Quick
      central_pool_external_spawn;
    Alcotest.test_case "central pool: multi-domain submitters" `Quick
      central_pool_multi_domain_submitters;
    Alcotest.test_case "central pool: shutdown while pending (P=1)" `Quick
      central_pool_shutdown_while_pending;
    Alcotest.test_case "central pool: shutdown race with workers" `Quick
      central_pool_shutdown_race;
  ]
