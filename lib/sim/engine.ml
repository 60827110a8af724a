module Rng = Abp_stats.Rng
module Dag = Abp_dag.Dag
module Tree = Abp_dag.Enabling_tree
module Metrics = Abp_dag.Metrics
module Adversary = Abp_kernel.Adversary
module Yield = Abp_kernel.Yield
module Counters = Abp_trace.Counters
module Sink = Abp_trace.Sink

type deque_model = Nonblocking | Locked of int
type spawn_policy = Child_first | Parent_first
type victim_policy = Random_victim | Round_robin_victim

type config = {
  num_processes : int;
  adversary : Adversary.t;
  yield_kind : Yield.kind;
  deque_model : deque_model;
  spawn_policy : spawn_policy;
  victim_policy : victim_policy;
  actions_per_round : int;
  max_rounds : int;
  seed : int64;
  check_invariants : bool;
}

let default_config ~num_processes ~adversary =
  {
    num_processes;
    adversary;
    yield_kind = Yield.Yield_to_all;
    deque_model = Nonblocking;
    spawn_policy = Child_first;
    victim_policy = Random_victim;
    actions_per_round = 1;
    max_rounds = 10_000_000;
    seed = 1L;
    check_invariants = false;
  }

(* A pending deque operation in the Locked model. *)
type op = Push of int | Pop_bottom | Pop_top of int

type micro = Idle | Acquiring of op | In_cs of op * int

type state = {
  cfg : config;
  dag : Dag.t;
  span : int;
  indeg : int array;
  assigned : int array;
  deques : Node_deque.t array;
  micro : micro array;
  locks : int option array;  (* per-deque holder *)
  next_victim : int array;  (* per-process cursor for Round_robin_victim *)
  tree : Tree.t;
  rng : Rng.t;
  yield : Yield.t;
  mutable finished : bool;
  counters : Counters.t array;  (* per-process telemetry *)
  sink : Sink.t option;  (* event stream, stamped with the round *)
  mutable violations : string list;
  mutable round_executed : (int * int) list;  (* (process, node) pairs this round, when tracing *)
  mutable tracing : bool;
  mutable cur_round : int;
  thief_since : int array;  (* round at which the process became a thief; -1 = worker *)
  mutable steal_latencies : int list;  (* rounds from first failed attempt to success *)
}

let cs_actions cfg = match cfg.deque_model with Nonblocking -> 0 | Locked k -> max 1 k

(* Telemetry: counters live in per-process records; events (when a sink
   with an event ring is attached) are stamped with the kernel round. *)
let emit st p ?arg kind =
  match st.sink with
  | Some s -> Sink.emit_at s ~worker:p ~time:(float_of_int st.cur_round) ?arg kind
  | None -> ()

let do_push st p v =
  Node_deque.push_bottom st.deques.(p) v;
  let c = st.counters.(p) in
  Counters.incr c Counters.pushes;
  Counters.note_max c Counters.deque_high_water (Node_deque.size st.deques.(p));
  emit st p ~arg:v Abp_trace.Event.Spawn

let do_pop_bottom st p =
  match Node_deque.pop_bottom st.deques.(p) with
  | Some v ->
      st.assigned.(p) <- v;
      let c = st.counters.(p) in
      Counters.incr c Counters.pops
  | None -> ()

(* Executing node [u] enables each successor whose in-degree drops to 0;
   enabling edges are recorded in the enabling tree. *)
let enabled_children st u =
  let enabled = ref [] in
  Array.iter
    (fun (v, _) ->
      st.indeg.(v) <- st.indeg.(v) - 1;
      if st.indeg.(v) = 0 then begin
        Tree.record st.tree ~parent:u ~child:v;
        enabled := v :: !enabled
      end)
    (Dag.succs st.dag u);
  List.rev !enabled

let request_push st p v =
  match st.cfg.deque_model with
  | Nonblocking -> do_push st p v
  | Locked _ -> st.micro.(p) <- Acquiring (Push v)

let request_pop_bottom st p =
  match st.cfg.deque_model with
  | Nonblocking -> do_pop_bottom st p
  | Locked _ -> st.micro.(p) <- Acquiring Pop_bottom

let perform_pop_top st p victim =
  let c = st.counters.(p) in
  Counters.incr c Counters.steal_attempts;
  if st.thief_since.(p) < 0 then st.thief_since.(p) <- st.cur_round;
  match Node_deque.pop_top st.deques.(victim) with
  | Some v ->
      st.assigned.(p) <- v;
      Counters.incr c Counters.successful_steals;
      Counters.incr c Counters.stolen_tasks;
      emit st p ~arg:victim Abp_trace.Event.Steal;
      st.steal_latencies <- (st.cur_round - st.thief_since.(p) + 1) :: st.steal_latencies;
      st.thief_since.(p) <- -1
  | None ->
      (* The simulator serializes deque methods, so a NIL here is a
         genuinely empty victim, never a lost CAS. *)
      Counters.incr c Counters.steal_empties;
      emit st p ~arg:victim Abp_trace.Event.Idle;
      (* yield between consecutive steal attempts (Figure 3, line 15) *)
      Counters.incr c Counters.yields;
      emit st p Abp_trace.Event.Yield;
      Yield.on_yield st.yield ~proc:p

let execute_node st p =
  let u = st.assigned.(p) in
  if st.tracing then st.round_executed <- (p, u) :: st.round_executed;
  emit st p ~arg:u Abp_trace.Event.Execute;
  if u = Dag.final st.dag then st.finished <- true;
  match enabled_children st u with
  | [] ->
      st.assigned.(p) <- -1;
      request_pop_bottom st p
  | [ v ] -> st.assigned.(p) <- v
  | [ v1; v2 ] ->
      let kind_of v =
        let k = ref Dag.Sync in
        Array.iter (fun (w, kw) -> if w = v then k := kw) (Dag.succs st.dag u);
        !k
      in
      (* Partition into the continuation (same thread) and the other
         child; when there is no continuation edge, keep edge order. *)
      let continue_child, other_child =
        if kind_of v1 = Dag.Continue then (v1, v2)
        else if kind_of v2 = Dag.Continue then (v2, v1)
        else (v1, v2)
      in
      let assign, push =
        match st.cfg.spawn_policy with
        | Child_first -> (other_child, continue_child)
        | Parent_first -> (continue_child, other_child)
      in
      st.assigned.(p) <- assign;
      request_push st p push
  | _ -> assert false (* out-degree <= 2 *)

let steal_attempt st p =
  if st.cfg.num_processes = 1 then begin
    (* No victims exist; a lone process just spins (cannot happen on a
       connected dag before completion unless blocked on itself). *)
    let c = st.counters.(p) in
    Counters.incr c Counters.steal_attempts;
    Counters.incr c Counters.steal_empties;
    emit st p Abp_trace.Event.Idle
  end
  else begin
    let victim =
      match st.cfg.victim_policy with
      | Random_victim ->
          let v = Rng.int st.rng (st.cfg.num_processes - 1) in
          if v >= p then v + 1 else v
      | Round_robin_victim ->
          let v = st.next_victim.(p) in
          let next = (v + 1) mod st.cfg.num_processes in
          st.next_victim.(p) <- (if next = p then (next + 1) mod st.cfg.num_processes else next);
          v
    in
    match st.cfg.deque_model with
    | Nonblocking -> perform_pop_top st p victim
    | Locked _ -> st.micro.(p) <- Acquiring (Pop_top victim)
  end

let lock_target p = function Push _ | Pop_bottom -> p | Pop_top victim -> victim

let perform_locked_op st p op =
  match op with
  | Push v -> do_push st p v
  | Pop_bottom -> do_pop_bottom st p
  | Pop_top victim -> perform_pop_top st p victim

let action st p =
  match st.micro.(p) with
  | In_cs (op, left) ->
      if left > 1 then st.micro.(p) <- In_cs (op, left - 1)
      else begin
        perform_locked_op st p op;
        st.locks.(lock_target p op) <- None;
        st.micro.(p) <- Idle
      end
  | Acquiring op ->
      let target = lock_target p op in
      if st.locks.(target) = None then begin
        st.locks.(target) <- Some p;
        let k = cs_actions st.cfg in
        if k <= 1 then begin
          perform_locked_op st p op;
          st.locks.(target) <- None;
          st.micro.(p) <- Idle
        end
        else st.micro.(p) <- In_cs (op, k - 1)
      end
      else begin
        let c = st.counters.(p) in
        Counters.incr c Counters.lock_spins
      end
  | Idle ->
      if st.assigned.(p) >= 0 then execute_node st p
      else if not (Node_deque.is_empty st.deques.(p)) then request_pop_bottom st p
      else steal_attempt st p

let snapshot st =
  { Invariants.span = st.span; tree = st.tree; assigned = st.assigned; deques = st.deques }

type trace = {
  steps : Dag.node array array;
  procs : int array array;  (* procs.(i).(j) executed steps.(i).(j) *)
  widths : int array;
  log_phi : float array;
  steals_per_round : int array;
}

(* Render the first [rounds] rounds in the style of Figure 2(b): one row
   per round, one column per process; "vN" = executed node (1-based, as
   in the paper), "I" = scheduled but idle (stealing or spinning), blank =
   not scheduled.  [sets] gives each round's scheduled set. *)
let pp_trace_table ~num_processes ~rounds ~sets ppf trace =
  let limit = min rounds (Array.length trace.steps) in
  Fmt.pf ppf "round";
  for q = 0 to num_processes - 1 do
    Fmt.pf ppf "  q%-5d" (q + 1)
  done;
  Fmt.pf ppf "@.";
  for i = 0 to limit - 1 do
    Fmt.pf ppf "%5d" (i + 1);
    for q = 0 to num_processes - 1 do
      let cell = ref (if sets.(i).(q) then "I" else "") in
      Array.iteri (fun j pq -> if pq = q then cell := Printf.sprintf "v%d" (trace.steps.(i).(j) + 1)) trace.procs.(i);
      Fmt.pf ppf "  %-6s" !cell
    done;
    Fmt.pf ppf "@."
  done

let total_attempts st =
  Array.fold_left (fun acc c -> acc + Counters.get c Counters.steal_attempts) 0 st.counters

let run_internal ~tracing ?trace cfg dag =
  if cfg.num_processes < 1 then invalid_arg "Engine.run: num_processes >= 1 required";
  (match trace with
  | Some s when Sink.workers s <> cfg.num_processes ->
      invalid_arg "Engine.run: trace sink must have one worker per process"
  | _ -> ());
  if tracing && cfg.actions_per_round <> 1 then
    invalid_arg "Engine.run_traced: requires actions_per_round = 1 (one node per process-step)";
  if cfg.actions_per_round < 1 then invalid_arg "Engine.run: actions_per_round >= 1 required";
  if cfg.max_rounds < 1 then invalid_arg "Engine.run: max_rounds >= 1 required";
  (match (cfg.check_invariants, cfg.deque_model) with
  | true, Locked _ ->
      invalid_arg
        "Engine.run: invariant checking requires the Nonblocking model (locked operations put \
         nodes transiently in limbo)"
  | _ -> ());
  let p = cfg.num_processes in
  let rng = Rng.create ~seed:cfg.seed () in
  let st =
    {
      cfg;
      dag;
      span = Metrics.span dag;
      indeg = Array.init (Dag.num_nodes dag) (fun v -> Dag.in_degree dag v);
      assigned = Array.make p (-1);
      deques = Array.init p (fun _ -> Node_deque.create ());
      micro = Array.make p Idle;
      locks = Array.make p None;
      next_victim = Array.init p (fun i -> (i + 1) mod p);
      tree = Tree.create dag;
      rng;
      yield = Yield.create cfg.yield_kind ~num_processes:p ~rng:(Rng.split rng);
      finished = false;
      counters =
        (match trace with
        | Some s -> Sink.per_worker s
        | None -> Array.init p (fun _ -> Counters.create ()));
      sink = trace;
      violations = [];
      round_executed = [];
      tracing;
      cur_round = 0;
      thief_since = Array.make p (-1);
      steal_latencies = [];
    }
  in
  (* The root node is assigned to process zero (Figure 3, lines 1-3). *)
  st.assigned.(0) <- Dag.root dag;
  let tokens = ref 0 in
  let rounds = ref 0 in
  let trace_steps = ref [] and trace_procs = ref [] and trace_widths = ref [] in
  let trace_sets = ref [] in
  let trace_phi = ref [] and trace_steals = ref [] in
  let attempts_before_round = ref 0 in
  let prev_phi = ref (Invariants.log_potential (snapshot st)) in
  let order = Array.init p (fun i -> i) in
  while (not st.finished) && !rounds < cfg.max_rounds do
    incr rounds;
    st.cur_round <- !rounds;
    st.round_executed <- [];
    attempts_before_round := total_attempts st;
    let view =
      {
        Adversary.round = !rounds;
        num_processes = p;
        has_assigned = (fun q -> st.assigned.(q) >= 0);
        deque_size = (fun q -> Node_deque.size st.deques.(q));
        in_critical_section =
          (fun q -> match st.micro.(q) with In_cs _ -> true | Idle | Acquiring _ -> false);
      }
    in
    let proposed = Adversary.choose cfg.adversary view in
    let final_set = Yield.repair st.yield proposed in
    let width = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 final_set in
    tokens := !tokens + width;
    for _ = 1 to cfg.actions_per_round do
      Rng.shuffle st.rng order;
      Array.iter (fun q -> if final_set.(q) && not st.finished then action st q) order
    done;
    Yield.note_scheduled st.yield final_set;
    if tracing then begin
      let pairs = List.rev st.round_executed in
      trace_steps := Array.of_list (List.map snd pairs) :: !trace_steps;
      trace_procs := Array.of_list (List.map fst pairs) :: !trace_procs;
      trace_sets := Array.copy final_set :: !trace_sets;
      trace_widths := width :: !trace_widths;
      trace_phi := Invariants.log_potential (snapshot st) :: !trace_phi;
      trace_steals := (total_attempts st - !attempts_before_round) :: !trace_steals
    end;
    if cfg.check_invariants then begin
      let snap = snapshot st in
      (match Invariants.check_structural snap with
      | Ok () -> ()
      | Error msg ->
          st.violations <- Printf.sprintf "round %d: %s" !rounds msg :: st.violations);
      let phi = Invariants.log_potential snap in
      if not (Invariants.potential_decrease_ok ~before:!prev_phi ~after:phi) then
        st.violations <-
          Printf.sprintf "round %d: potential increased (%.6f -> %.6f)" !rounds !prev_phi phi
          :: st.violations;
      prev_phi := phi
    end
  done;
  let totals = Counters.sum st.counters in
  let result =
    {
      Run_result.rounds = !rounds;
      completed = st.finished;
      tokens = !tokens;
      pbar = (if !rounds = 0 then 0.0 else float_of_int !tokens /. float_of_int !rounds);
      work = Metrics.work dag;
      span = st.span;
      num_processes = p;
      steal_attempts = Counters.get totals Counters.steal_attempts;
      successful_steals = Counters.get totals Counters.successful_steals;
      lock_spins = Counters.get totals Counters.lock_spins;
      yield_calls = Counters.get totals Counters.yields;
      invariant_violations = List.rev st.violations;
      steal_latencies = Array.of_list (List.rev st.steal_latencies);
      per_worker = st.counters;
    }
  in
  let trace =
    {
      steps = Array.of_list (List.rev !trace_steps);
      procs = Array.of_list (List.rev !trace_procs);
      widths = Array.of_list (List.rev !trace_widths);
      log_phi = Array.of_list (List.rev !trace_phi);
      steals_per_round = Array.of_list (List.rev !trace_steals);
    }
  in
  (result, trace, Array.of_list (List.rev !trace_sets))

let run ?trace cfg dag =
  let result, _, _ = run_internal ~tracing:false ?trace cfg dag in
  result

let run_traced ?trace cfg dag =
  let result, tr, _ = run_internal ~tracing:true ?trace cfg dag in
  (result, tr)

let run_traced_with_sets ?trace cfg dag = run_internal ~tracing:true ?trace cfg dag
