(* Real-parallelism stress: one owner domain driving push_bottom /
   pop_bottom against N thief domains driving pop_top, on both the ABP
   fixed-array deque and the circular Chase-Lev deque.  Asserts
   conservation (every pushed value popped exactly once, by owner or by a
   thief) and that the detailed pop outcomes account for every steal
   attempt: attempts = successes + empties + lost CASes.  A final case
   runs the whole Hood pool in instrumented mode and checks the same
   arithmetic on the sink totals. *)

module Spec = Abp_deque.Spec
module Counters = Abp_trace.Counters
module Sink = Abp_trace.Sink

type ops = {
  push : int -> unit;
  pop_bottom : unit -> int Spec.detailed;
  pop_top : unit -> int Spec.detailed;
}

let n_items = 20_000
let n_thieves = 3

(* Returns (owner counters, thief counters array, seen array). *)
let stress ops =
  let seen = Array.init n_items (fun _ -> Atomic.make 0) in
  let remaining = Atomic.make n_items in
  let take v =
    Atomic.incr seen.(v);
    Atomic.decr remaining
  in
  let owner = Counters.create () in
  let thief_counters = Array.init n_thieves (fun _ -> Counters.create ()) in
  let thief i =
    let c = thief_counters.(i) in
    while Atomic.get remaining > 0 do
      Counters.incr c Counters.steal_attempts;
      (match ops.pop_top () with
      | Spec.Got v ->
          Counters.incr c Counters.successful_steals;
          Counters.incr c Counters.stolen_tasks;
          take v
      | Spec.Empty ->
          Counters.incr c Counters.steal_empties;
          Counters.incr c Counters.yields;
          Domain.cpu_relax ()
      | Spec.Contended ->
          Counters.incr c Counters.cas_failures_pop_top)
    done
  in
  let domains = Array.init n_thieves (fun i -> Domain.spawn (fun () -> thief i)) in
  let owner_pop () =
    match ops.pop_bottom () with
    | Spec.Got v ->
        Counters.incr owner Counters.pops;
        take v
    | Spec.Empty -> ()
    | Spec.Contended ->
        (* The deque's last item was stolen mid-popBottom. *)
        Counters.incr owner Counters.cas_failures_pop_bottom
  in
  for v = 0 to n_items - 1 do
    ops.push v;
    Counters.incr owner Counters.pushes;
    (* Interleave owner pops with pushes so the owner also drains the
       deque to empty mid-run (exercising the ABP reset / tag-bump path
       while thieves race the last item). *)
    if v mod 7 = 0 then owner_pop ()
  done;
  while Atomic.get remaining > 0 do
    owner_pop ()
  done;
  Array.iter Domain.join domains;
  (owner, thief_counters, seen)

let check_stress name (owner, thieves, seen) =
  let lost = ref 0 and duplicated = ref 0 in
  Array.iter
    (fun slot ->
      match Atomic.get slot with
      | 1 -> ()
      | 0 -> incr lost
      | _ -> incr duplicated)
    seen;
  Alcotest.(check int) (name ^ ": no value lost") 0 !lost;
  Alcotest.(check int) (name ^ ": no value popped twice") 0 !duplicated;
  Alcotest.(check int) (name ^ ": all pushes counted") n_items (Counters.get owner Counters.pushes);
  let stolen =
    Array.fold_left (fun a c -> a + Counters.get c Counters.successful_steals) 0 thieves
  in
  Alcotest.(check int)
    (name ^ ": owner pops + thief steals = pushes")
    n_items
    (Counters.get owner Counters.pops + stolen);
  Array.iteri
    (fun i c ->
      let name = Printf.sprintf "%s: thief %d" name i in
      Alcotest.(check bool) (name ^ " breakdown complete") true (Counters.complete c);
      (* attempts − successes is exactly the empties plus the lost CASes *)
      Alcotest.(check int)
        (name ^ " failures = attempts - successes")
        (Counters.get c Counters.steal_attempts - Counters.get c Counters.successful_steals)
        (Counters.get c Counters.steal_empties + Counters.get c Counters.cas_failures_pop_top))
    thieves

let atomic_deque_stress () =
  let d : int Abp_deque.Atomic_deque.t =
    Abp_deque.Atomic_deque.create ~capacity:n_items ()
  in
  let ops =
    {
      push = Abp_deque.Atomic_deque.push_bottom d;
      pop_bottom = (fun () -> Abp_deque.Atomic_deque.pop_bottom_detailed d);
      pop_top = (fun () -> Abp_deque.Atomic_deque.pop_top_detailed d);
    }
  in
  check_stress "abp" (stress ops)

let circular_deque_stress () =
  (* Small initial capacity so the buffer has to grow under contention. *)
  let d : int Abp_deque.Circular_deque.t = Abp_deque.Circular_deque.create ~capacity:16 () in
  let ops =
    {
      push = Abp_deque.Circular_deque.push_bottom d;
      pop_bottom = (fun () -> Abp_deque.Circular_deque.pop_bottom_detailed d);
      pop_top = (fun () -> Abp_deque.Circular_deque.pop_top_detailed d);
    }
  in
  check_stress "circular" (stress ops)

let pool_instrumented_arithmetic () =
  let p = 4 in
  let sink = Sink.create ~workers:p () in
  let pool = Abp_hood.Pool.create ~processes:p ~trace:sink () in
  let v =
    Fun.protect
      ~finally:(fun () -> Abp_hood.Pool.shutdown pool)
      (fun () -> Abp_hood.Pool.run pool (fun () -> Abp_hood.Par.fib 21))
  in
  Alcotest.(check int) "fib value" 10946 v;
  let totals = Sink.totals sink in
  Alcotest.(check bool) "attempts fully classified" true (Counters.complete totals);
  Alcotest.(check bool) "successes <= attempts" true
    (Counters.get totals Counters.successful_steals <= Counters.get totals Counters.steal_attempts);
  Alcotest.(check int) "cas failures consistent with attempts - successes"
    (Counters.get totals Counters.steal_attempts - Counters.get totals Counters.successful_steals)
    (Counters.get totals Counters.steal_empties
    + Counters.get totals Counters.cas_failures_pop_top);
  (* At shutdown every pushed task has been executed by someone. *)
  Alcotest.(check int) "pushes = owner pops + steals" (Counters.get totals Counters.pushes)
    (Counters.get totals Counters.pops + Counters.get totals Counters.successful_steals);
  (* The sink and the pool's legacy aggregate counters agree. *)
  Alcotest.(check int) "sink attempts = pool attempts"
    (Abp_hood.Pool.steal_attempts pool)
    (Counters.get totals Counters.steal_attempts);
  Alcotest.(check int) "sink successes = pool successes"
    (Abp_hood.Pool.successful_steals pool)
    (Counters.get totals Counters.successful_steals);
  (* Per-worker records the pool exposes are the sink's own records. *)
  let pw = Abp_hood.Pool.counters pool in
  Alcotest.(check int) "per-worker width" p (Array.length pw);
  Alcotest.(check int) "per-worker sums to totals" (Counters.get totals Counters.steal_attempts)
    (Counters.get (Counters.sum pw) Counters.steal_attempts)

(* The pool's aggregate accessors are derived — sums over the per-worker
   records, no shared atomics on the steal path — so on an untraced pool
   they must equal the summed private records exactly once quiesced. *)
let untraced_pool_accessors_are_sums () =
  let pool = Abp_hood.Pool.create ~processes:4 () in
  let v =
    Fun.protect
      ~finally:(fun () -> Abp_hood.Pool.shutdown pool)
      (fun () -> Abp_hood.Pool.run pool (fun () -> Abp_hood.Par.fib 22))
  in
  Alcotest.(check int) "fib value" 17711 v;
  let pw = Abp_hood.Pool.counters pool in
  Alcotest.(check int) "one record per worker" 4 (Array.length pw);
  let totals = Counters.sum pw in
  Alcotest.(check int) "steal_attempts accessor = per-worker sum"
    (Counters.get totals Counters.steal_attempts)
    (Abp_hood.Pool.steal_attempts pool);
  Alcotest.(check int) "successful_steals accessor = per-worker sum"
    (Counters.get totals Counters.successful_steals)
    (Abp_hood.Pool.successful_steals pool);
  Alcotest.(check bool) "attempts fully classified" true (Counters.complete totals);
  Alcotest.(check int) "pushes = pops + steals" (Counters.get totals Counters.pushes)
    (Counters.get totals Counters.pops + Counters.get totals Counters.successful_steals);
  Alcotest.(check int) "no task exceptions" 0 (Counters.get totals Counters.task_exceptions)

(* --- wsm: the fence-free multiplicity deque -------------------------- *)

(* Thief parallelism follows ABP_MP_PROCS (the lib/mp convention) so CI
   can oversubscribe the box; at least 2 so there is always one thief. *)
let wsm_procs () =
  match Sys.getenv_opt "ABP_MP_PROCS" with
  | Some s -> ( try max 2 (int_of_string s) with _ -> 3)
  | None -> 3

let wsm_n_items = 1_000_000

(* Raw-deque stress at >= 1e6 owner operations.  Duplicates are LEGAL on
   this backend, so the harness must not reuse [stress]'s exactly-once
   bookkeeping: [remaining] is decremented only on the FIRST extraction
   of a value (a duplicate would otherwise strand later values), and
   conservation is at-least-once — nothing lost, every extra extraction
   counted, and the exactly-once arithmetic restored once the duplicate
   count is added back.  The steal path is also wait-free without CAS,
   so no attempt may classify as Contended. *)
let wsm_deque_stress () =
  let d : int Abp_deque.Wsm_deque.t = Abp_deque.Wsm_deque.create ~capacity:1024 () in
  let n_thieves = max 1 (wsm_procs () - 1) in
  let seen = Array.init wsm_n_items (fun _ -> Atomic.make 0) in
  let remaining = Atomic.make wsm_n_items in
  let duplicates = Atomic.make 0 in
  let take v =
    if Atomic.fetch_and_add seen.(v) 1 = 0 then Atomic.decr remaining
    else Atomic.incr duplicates
  in
  let owner = Counters.create () in
  let thief_counters = Array.init n_thieves (fun _ -> Counters.create ()) in
  let thief i =
    let c = thief_counters.(i) in
    while Atomic.get remaining > 0 do
      Counters.incr c Counters.steal_attempts;
      match Abp_deque.Wsm_deque.pop_top_detailed d with
      | Spec.Got v ->
          Counters.incr c Counters.successful_steals;
          take v
      | Spec.Empty ->
          Counters.incr c Counters.steal_empties;
          Domain.cpu_relax ()
      | Spec.Contended -> Counters.incr c Counters.cas_failures_pop_top
    done
  in
  let domains = Array.init n_thieves (fun i -> Domain.spawn (fun () -> thief i)) in
  let owner_pop () =
    match Abp_deque.Wsm_deque.pop_bottom_detailed d with
    | Spec.Got v ->
        Counters.incr owner Counters.pops;
        take v
    | Spec.Empty -> ()
    | Spec.Contended -> Alcotest.fail "wsm popBottom returned Contended"
  in
  for v = 0 to wsm_n_items - 1 do
    Abp_deque.Wsm_deque.push_bottom d v;
    Counters.incr owner Counters.pushes;
    if v mod 7 = 0 then owner_pop ()
  done;
  while Atomic.get remaining > 0 do
    owner_pop ()
  done;
  Array.iter Domain.join domains;
  let lost = ref 0 in
  Array.iter (fun slot -> if Atomic.get slot = 0 then incr lost) seen;
  Alcotest.(check int) "wsm: no value lost" 0 !lost;
  Alcotest.(check int) "wsm: all pushes counted" wsm_n_items (Counters.get owner Counters.pushes);
  Alcotest.(check bool) "wsm: duplicate count sane" true (Atomic.get duplicates >= 0);
  let stolen =
    Array.fold_left (fun a c -> a + Counters.get c Counters.successful_steals) 0 thief_counters
  in
  Alcotest.(check int) "wsm: pops + steals = pushes + duplicates"
    (wsm_n_items + Atomic.get duplicates)
    (Counters.get owner Counters.pops + stolen);
  Array.iteri
    (fun i c ->
      let name = Printf.sprintf "wsm: thief %d" i in
      Alcotest.(check int) (name ^ " no Contended (no-CAS popTop)") 0
        (Counters.get c Counters.cas_failures_pop_top);
      Alcotest.(check int)
        (name ^ " attempts = successes + empties")
        (Counters.get c Counters.steal_attempts)
        (Counters.get c Counters.successful_steals + Counters.get c Counters.steal_empties))
    thief_counters

let tests =
  [
    Alcotest.test_case "owner vs 3 thieves on ABP deque" `Quick atomic_deque_stress;
    Alcotest.test_case "owner vs 3 thieves on circular deque" `Quick circular_deque_stress;
    Alcotest.test_case "instrumented pool: counter arithmetic" `Quick
      pool_instrumented_arithmetic;
    Alcotest.test_case "untraced pool: accessors are per-worker sums" `Quick
      untraced_pool_accessors_are_sums;
    Alcotest.test_case "wsm deque: owner vs thieves, at-least-once + counted duplicates" `Quick
      wsm_deque_stress;
  ]
