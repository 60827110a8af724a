module Ws = Abp_deque.Wsm_step

type program = { owner : Ws.op list; thieves : Ws.op list list }

let program_total_ops p =
  List.length p.owner + List.fold_left (fun acc l -> acc + List.length l) 0 p.thieves

type report = {
  states_explored : int;
  complete_executions : int;
  serial_executions : int;
  max_duplicates : int;
  violations : string list;
}

(* One thread of the exploration.  The NIL-legality monitors differ
   from the ABP deque's ({!Deque_checks}): a take_published NIL is
   provable legal iff at some instant during the invocation the
   published window was empty ([pub - con <= 0]), or another process
   completed an extraction (a [con] store) meanwhile — see the
   soundness argument at [check_completion]. *)
type thread = {
  script : Ws.op array;
  next_op : int;
  ctx : Ws.ctx option;
  steps_taken : int;
  saw_window_empty : bool;
  saw_foreign_extract : bool;
  outcomes : Ws.outcome list;  (* reversed *)
}

(* [trace] records completed invocations in completion order, kept only
   while the execution is still serial (no two invocations have ever
   overlapped): in a serial execution completion order IS invocation
   order, and the trace replays against an exact LIFO oracle. *)
type node = {
  state : Ws.state;
  threads : thread array;
  serial : bool;
  trace : (Ws.op * Ws.outcome) list;  (* reversed; only while serial *)
}

let clone_node n =
  {
    n with
    state = Ws.copy_state n.state;
    threads = Array.map (fun t -> { t with ctx = Option.map Ws.copy_ctx t.ctx }) n.threads;
  }

let encode n =
  let b = Buffer.create 128 in
  let add_int i =
    Buffer.add_string b (string_of_int i);
    Buffer.add_char b ','
  in
  let add_opt = function None -> add_int (-1) | Some v -> add_int v in
  add_int n.state.Ws.pub;
  add_int n.state.Ws.con;
  List.iter add_int n.state.Ws.priv;
  Buffer.add_char b ';';
  Array.iter add_opt n.state.Ws.board;
  Buffer.add_char b (if n.serial then 's' else 'c');
  let add_outcome = function
    | Ws.Unit -> Buffer.add_char b 'u'
    | Ws.Nil -> Buffer.add_char b 'n'
    | Ws.Value v -> add_int v
  in
  Array.iter
    (fun t ->
      Buffer.add_char b '|';
      add_int t.next_op;
      add_int ((if t.saw_window_empty then 1 else 0) + if t.saw_foreign_extract then 2 else 0);
      (match t.ctx with
      | None -> Buffer.add_char b '.'
      | Some c ->
          add_int c.Ws.pc;
          add_int c.Ws.r_c;
          add_int c.Ws.r_p;
          add_opt c.Ws.r_slot;
          add_opt c.Ws.r_node);
      List.iter add_outcome t.outcomes)
    n.threads;
  (* The trace determines the serial-replay verdict, so it must key the
     visited set while it is live (it is [] as soon as serial is off). *)
  if n.serial then
    List.iter
      (fun (op, o) ->
        Buffer.add_char b '/';
        add_int (match op with Ws.Push_bottom v -> v | Ws.Pop_bottom -> -2 | Ws.Pop_top -> -3);
        add_outcome o)
      n.trace;
  Buffer.contents b

let op_name = function
  | Ws.Push_bottom v -> Printf.sprintf "pushBottom(%d)" v
  | Ws.Pop_bottom -> "popBottom"
  | Ws.Pop_top -> "popTop"

let window_empty state = state.Ws.pub - state.Ws.con <= 0

(* Soundness of the NIL monitor: take_published returns NIL from its
   [c >= p] test, where [c] was read at instant t1 and [p] at t2 >= t1.
   Suppose the window was non-empty at every instant of the invocation
   and no other process wrote [con] during it.  Then [con] never
   changed between t1 and t2 (the invoking process itself only writes
   [con] on its success path), so c = con(t2) < pub(t2) = p — the test
   cannot have fired.  Hence NIL implies an empty-window instant or a
   foreign extraction; anything else is a genuine bug.  (The defensive
   slot=None NIL is checked separately: it must be unreachable under
   sequentially consistent interleavings.) *)
let check_completion t (c : Ws.ctx) ~pre_pc violations =
  (match c.Ws.result with
  | Some Ws.Nil ->
      let from_empty_slot = pre_pc = 2 || pre_pc = 12 in
      if from_empty_slot then
        violations :=
          Printf.sprintf "%s read an unpublished board slot (defensive NIL reached)"
            (op_name c.Ws.op)
          :: !violations
      else begin
        let legal =
          match c.Ws.op with
          | Ws.Pop_top -> t.saw_window_empty || t.saw_foreign_extract
          | Ws.Pop_bottom ->
              (* Reaches NIL only through take_published with an empty
                 private ring, so the same monitor applies. *)
              t.saw_window_empty || t.saw_foreign_extract
          | Ws.Push_bottom _ -> false
        in
        if not legal then
          violations :=
            Printf.sprintf "%s returned NIL with the window never empty and no interference"
              (op_name c.Ws.op)
            :: !violations
      end
  | _ -> ());
  if t.steps_taken > Ws.steps_bound c.Ws.op then
    violations :=
      Printf.sprintf "%s took %d steps (bound %d)" (op_name c.Ws.op) t.steps_taken
        (Ws.steps_bound c.Ws.op)
      :: !violations

(* Serial executions must be exact: replay the completion-order trace
   against the ideal LIFO oracle (top at head, as {!Spec.Reference}).
   popBottom agrees with the oracle step for step; popTop either
   returns the oracle's exact top or the legal early NIL (the board was
   drained while items sat in the private ring) — which leaves the
   oracle untouched. *)
let check_serial_trace trace violations =
  let fail fmt = Printf.ksprintf (fun m -> violations := m :: !violations) fmt in
  let oracle = ref [] in
  List.iter
    (fun (op, outcome) ->
      match (op, outcome) with
      | Ws.Push_bottom v, Ws.Unit -> oracle := !oracle @ [ v ]
      | Ws.Pop_bottom, Ws.Value v -> (
          match List.rev !oracle with
          | last :: rest_rev when last = v -> oracle := List.rev rest_rev
          | last :: _ -> fail "serial popBottom returned %d, oracle bottom is %d" v last
          | [] -> fail "serial popBottom returned %d from an empty oracle" v)
      | Ws.Pop_bottom, Ws.Nil ->
          if !oracle <> [] then fail "serial popBottom NIL with %d items" (List.length !oracle)
      | Ws.Pop_top, Ws.Value v -> (
          match !oracle with
          | top :: rest when top = v -> oracle := rest
          | top :: _ -> fail "serial popTop returned %d, oracle top is %d" v top
          | [] -> fail "serial popTop returned %d from an empty oracle" v)
      | Ws.Pop_top, Ws.Nil -> ()  (* early NIL: legal, oracle unchanged *)
      | Ws.Push_bottom _, _ | (Ws.Pop_bottom | Ws.Pop_top), Ws.Unit ->
          fail "%s completed with an impossible outcome" (op_name op))
    trace

(* Final verdict for one complete execution: the multiplicity contract.
   Nothing invented (every extracted or remaining value was pushed),
   nothing lost (every pushed value was extracted at least once or
   remains reachable), duplicates allowed and counted. *)
let check_final n violations =
  let pushed = Hashtbl.create 16 and extracted = Hashtbl.create 16 in
  Array.iter
    (fun t ->
      Array.iter
        (function Ws.Push_bottom v -> Hashtbl.replace pushed v () | _ -> ())
        t.script;
      List.iter
        (function
          | Ws.Value v ->
              Hashtbl.replace extracted v (1 + Option.value ~default:0 (Hashtbl.find_opt extracted v))
          | _ -> ())
        t.outcomes)
    n.threads;
  let s = n.state in
  let remaining = Hashtbl.create 16 in
  List.iter (fun v -> Hashtbl.replace remaining v ()) s.Ws.priv;
  for i = s.Ws.con to s.Ws.pub - 1 do
    match s.Ws.board.(i land (Ws.board_length - 1)) with
    | Some v -> Hashtbl.replace remaining v ()
    | None -> ()
  done;
  Hashtbl.iter
    (fun v _ ->
      if not (Hashtbl.mem pushed v) then
        violations := Printf.sprintf "value %d remains in the deque but was never pushed" v :: !violations)
    remaining;
  let duplicates = ref 0 in
  Hashtbl.iter
    (fun v k ->
      if not (Hashtbl.mem pushed v) then
        violations := Printf.sprintf "value %d extracted but never pushed" v :: !violations
      else duplicates := !duplicates + (k - 1))
    extracted;
  Hashtbl.iter
    (fun v () ->
      if not (Hashtbl.mem extracted v || Hashtbl.mem remaining v) then
        violations := Printf.sprintf "value %d lost: pushed, never extracted, not remaining" v :: !violations)
    pushed;
  if n.serial then begin
    if !duplicates > 0 then
      violations := Printf.sprintf "serial execution produced %d duplicate(s)" !duplicates :: !violations;
    check_serial_trace (List.rev n.trace) violations
  end;
  !duplicates

let explore program =
  List.iter
    (List.iter (function
      | Ws.Pop_top -> ()
      | op -> invalid_arg ("Wsm_explorer: thief may only popTop, got " ^ op_name op)))
    program.thieves;
  (* Distinct pushed values: the conservation verdict is per-value. *)
  let seen = Hashtbl.create 16 in
  List.iter
    (function
      | Ws.Push_bottom v ->
          if Hashtbl.mem seen v then invalid_arg "Wsm_explorer: pushed values must be distinct";
          Hashtbl.add seen v ()
      | _ -> ())
    program.owner;
  let mk_thread script =
    {
      script = Array.of_list script;
      next_op = 0;
      ctx = None;
      steps_taken = 0;
      saw_window_empty = false;
      saw_foreign_extract = false;
      outcomes = [];
    }
  in
  let root =
    {
      state = Ws.create_state ();
      threads = Array.of_list (mk_thread program.owner :: List.map mk_thread program.thieves);
      serial = true;
      trace = [];
    }
  in
  let visited = Hashtbl.create 4096 in
  let violations = ref [] in
  let states = ref 0 in
  let completions = ref 0 in
  let serial_completions = ref 0 in
  let max_duplicates = ref 0 in
  let rec dfs n =
    let key = encode n in
    if not (Hashtbl.mem visited key) then begin
      Hashtbl.add visited key ();
      incr states;
      let runnable = ref [] in
      Array.iteri
        (fun i t ->
          let active = match t.ctx with Some c -> c.Ws.result = None | None -> false in
          if active || t.next_op < Array.length t.script then runnable := i :: !runnable)
        n.threads;
      match !runnable with
      | [] ->
          incr completions;
          if n.serial then incr serial_completions;
          let d = check_final n violations in
          if d > !max_duplicates then max_duplicates := d
      | threads_to_try ->
          List.iter
            (fun i ->
              let child = clone_node n in
              let t = child.threads.(i) in
              (* Stepping [i] while another invocation is in flight ends
                 the execution's serial prefix. *)
              let overlapping = ref false in
              Array.iteri
                (fun j tj ->
                  if j <> i then
                    match tj.ctx with
                    | Some c when c.Ws.result = None -> overlapping := true
                    | _ -> ())
                child.threads;
              let child =
                if !overlapping && child.serial then { child with serial = false; trace = [] }
                else child
              in
              let t =
                match t.ctx with
                | Some c when c.Ws.result = None -> t
                | _ ->
                    {
                      t with
                      ctx = Some (Ws.start t.script.(t.next_op));
                      next_op = t.next_op + 1;
                      steps_taken = 0;
                      saw_window_empty = false;
                      saw_foreign_extract = false;
                    }
              in
              let c = match t.ctx with Some c -> c | None -> assert false in
              let pre_pc = c.Ws.pc in
              Ws.step child.state c;
              let t = { t with steps_taken = t.steps_taken + 1 } in
              child.threads.(i) <- t;
              (* Refresh the NIL monitors of every in-flight invocation:
                 an empty-window instant, or an extraction completed by
                 the mover. *)
              let extract_completed =
                match c.Ws.result with
                | Some (Ws.Value _) -> (
                    match c.Ws.op with Ws.Pop_top | Ws.Pop_bottom -> true | _ -> false)
                | _ -> false
              in
              let empty_now = window_empty child.state in
              Array.iteri
                (fun j tj ->
                  match tj.ctx with
                  | Some cj when cj.Ws.result = None ->
                      let tj = if empty_now then { tj with saw_window_empty = true } else tj in
                      let tj =
                        if extract_completed && j <> i then { tj with saw_foreign_extract = true }
                        else tj
                      in
                      child.threads.(j) <- tj
                  | _ -> ())
                child.threads;
              (* The mover's own empty-window flag covers a NIL decided at
                 this very instruction. *)
              (if empty_now then
                 let t = child.threads.(i) in
                 child.threads.(i) <- { t with saw_window_empty = true });
              (match c.Ws.result with
              | Some outcome ->
                  let t = child.threads.(i) in
                  check_completion t c ~pre_pc violations;
                  child.threads.(i) <- { t with outcomes = outcome :: t.outcomes };
                  if child.serial then
                    dfs { child with trace = (c.Ws.op, outcome) :: child.trace }
                  else dfs child
              | None -> dfs child))
            threads_to_try
    end
  in
  dfs root;
  let dedup = List.sort_uniq compare !violations in
  {
    states_explored = !states;
    complete_executions = !completions;
    serial_executions = !serial_completions;
    max_duplicates = !max_duplicates;
    violations = dedup;
  }

let pp_report ppf r =
  Fmt.pf ppf "states=%d completions=%d (serial %d) max-dup=%d violations=%d" r.states_explored
    r.complete_executions r.serial_executions r.max_duplicates (List.length r.violations);
  List.iter (fun v -> Fmt.pf ppf "@.  %s" v) r.violations

(* The owner publishes, drains and republishes (the pop_bottom reclaim
   path and the board top-up) while two thieves race the same published
   window: where both read the same [con] and both blindly store
   [con + 1], multiplicity appears, and nothing worse may. *)
let wsm_thief =
  {
    owner = [ Ws.Push_bottom 1; Ws.Push_bottom 2; Ws.Pop_bottom; Ws.Push_bottom 3; Ws.Pop_bottom ];
    thieves = [ [ Ws.Pop_top; Ws.Pop_top ]; [ Ws.Pop_top ] ];
  }

(* Five pushes against a drain-happy owner wrap the model's 4-slot
   publication ring, so a thief's invocation can straddle a slot's
   overwrite: the stale read that publish-requires-drained makes safe. *)
let wsm_reuse =
  {
    owner = List.concat (List.init 5 (fun i -> [ Ws.Push_bottom (i + 1); Ws.Pop_bottom ]));
    thieves = [ [ Ws.Pop_top ] ];
  }
