(* Exhaustive model of the lean future's cell protocol
   ([Abp_hood.Future]): one executor publishes the task's outcome while
   k forcers, each having missed the inline join, try to install a
   promise; every interleaving of their shared-memory steps is explored
   by DFS with state memoization.

   The model mirrors the implementation at the level of shared
   accesses:

   - the executor CASes the cell [Unforced -> Value].  On failure it
     LOADs the cell, which must hold [Waited p], and fulfils [p]: LOAD
     the promise, CAS [Pending ws -> Fulfilled] (retrying on failure),
     then schedule the detached waiters one per step in park order;
   - a forcer LOADs the cell.  [Value] is the direct path.  [Unforced]
     leads to a CAS [Unforced -> Waited (own promise)], re-reading the
     cell on failure.  [Waited p] (its own or another forcer's) leads
     to [await p]: LOAD the promise, resume at once on [Fulfilled],
     otherwise CAS-park on [Pending ws] and retry from the LOAD on
     failure — the [Fiber_model] protocol.

   A forcer's fresh promise is named by the forcer's id; one that loses
   the install CAS is garbage and never touched again.

   Checked on every execution: each forcer gets the value exactly once
   (directly, from a resolved promise, or by a schedule step, never
   two of these and never none), the executor publishes exactly once,
   a promise is fulfilled only if installed, and no reachable state
   without an enabled step leaves a forcer parked. *)

type got = Direct | Immediate | Scheduled

type forcer =
  | FStart  (* about to LOAD the cell *)
  | FInstall  (* LOAD saw Unforced: about to CAS in its own promise *)
  | FAwait of int  (* about to LOAD promise [p] *)
  | FPark of int * int list  (* LOAD saw [p] Pending [ws]: about to CAS-park *)
  | FParked  (* only a schedule step may resume it *)
  | FGot of got

type cell = Unforced | Waited of int | Value

type executor =
  | EStart  (* about to CAS Unforced -> Value *)
  | ELoadCell  (* the CAS failed: about to LOAD the cell *)
  | ELoadPromise
  | EFulfil of int list  (* observed Pending ws: about to CAS to Fulfilled *)
  | EScheduling of int list  (* detached waiters, park order *)
  | EDone

type state = {
  cell : cell;
  promise : int list option;
      (* the installed promise: [Some ws] pending with parked ids [ws]
         (newest first), [None] fulfilled; meaningful once [cell] is
         [Waited] *)
  forcers : forcer array;
  executor : executor;
}

type report = {
  states_explored : int;
  complete_executions : int;
  direct_gets : int;
  promise_gets : int;
  violations : string list;
}

let forcer_step st i =
  let fs = Array.copy st.forcers in
  let set f = fs.(i) <- f in
  match st.forcers.(i) with
  | FStart ->
      (match st.cell with
      | Value -> set (FGot Direct)
      | Unforced -> set FInstall
      | Waited p -> set (FAwait p));
      Ok { st with forcers = fs }
  | FInstall ->
      if st.cell = Unforced then begin
        set (FAwait i);
        Ok { st with cell = Waited i; promise = Some []; forcers = fs }
      end
      else begin
        set FStart;
        Ok { st with forcers = fs }
      end
  | FAwait p -> (
      if st.cell <> Waited p then Error (Printf.sprintf "forcer %d awaits an uninstalled promise" i)
      else
        match st.promise with
        | None ->
            set (FGot Immediate);
            Ok { st with forcers = fs }
        | Some ws ->
            set (FPark (p, ws));
            Ok { st with forcers = fs })
  | FPark (p, ws) ->
      if st.promise = Some ws then begin
        set FParked;
        Ok { st with promise = Some (i :: ws); forcers = fs }
      end
      else begin
        set (FAwait p);
        Ok { st with forcers = fs }
      end
  | FParked | FGot _ -> Error "forcer stepped while parked or done"

let executor_step st =
  match st.executor with
  | EStart ->
      if st.cell = Unforced then Ok { st with cell = Value; executor = EDone }
      else Ok { st with executor = ELoadCell }
  | ELoadCell -> (
      match st.cell with
      | Waited _ -> Ok { st with executor = ELoadPromise }
      | Unforced | Value -> Error "executor's CAS failed but no promise is installed")
  | ELoadPromise -> (
      match st.promise with
      | Some ws -> Ok { st with executor = EFulfil ws }
      | None -> Error "promise fulfilled twice")
  | EFulfil ws ->
      if st.promise = Some ws then
        Ok { st with promise = None; executor = EScheduling (List.rev ws) }
      else Ok { st with executor = ELoadPromise }
  | EScheduling [] -> Ok { st with executor = EDone }
  | EScheduling (i :: rest) -> (
      let fs = Array.copy st.forcers in
      match st.forcers.(i) with
      | FParked ->
          fs.(i) <- FGot Scheduled;
          Ok { st with forcers = fs; executor = EScheduling rest }
      | FGot _ -> Error (Printf.sprintf "forcer %d got the value twice" i)
      | _ -> Error (Printf.sprintf "forcer %d scheduled while not parked" i))
  | EDone -> Error "executor stepped after done"

let forcer_enabled = function FParked | FGot _ -> false | _ -> true

let explore ~forcers:k =
  if k < 1 then invalid_arg "Future_model.explore: need at least one forcer";
  let visited = Hashtbl.create 4096 in
  let states = ref 0 in
  let executions = ref 0 in
  let direct = ref 0 in
  let via_promise = ref 0 in
  let violations = ref [] in
  let note v = if not (List.mem v !violations) then violations := v :: !violations in
  let rec dfs st =
    if not (Hashtbl.mem visited st) then begin
      Hashtbl.add visited st ();
      incr states;
      let moved = ref false in
      Array.iteri
        (fun i f ->
          if forcer_enabled f then begin
            moved := true;
            match forcer_step st i with Ok st' -> dfs st' | Error v -> note v
          end)
        st.forcers;
      if st.executor <> EDone then begin
        moved := true;
        match executor_step st with Ok st' -> dfs st' | Error v -> note v
      end;
      if not !moved then begin
        incr executions;
        Array.iteri
          (fun i f ->
            match f with
            | FGot _ -> ()
            | _ -> note (Printf.sprintf "forcer %d left parked (lost wakeup)" i))
          st.forcers;
        if Array.exists (fun f -> f = FGot Direct) st.forcers then incr direct;
        if Array.exists (fun f -> f = FGot Immediate || f = FGot Scheduled) st.forcers then
          incr via_promise
      end
    end
  in
  dfs { cell = Unforced; promise = None; forcers = Array.make k FStart; executor = EStart };
  {
    states_explored = !states;
    complete_executions = !executions;
    direct_gets = !direct;
    promise_gets = !via_promise;
    violations = List.rev !violations;
  }

let pp_report ppf r =
  Fmt.pf ppf "states %d  terminal %d  direct %d  via promise %d  %s" r.states_explored
    r.complete_executions r.direct_gets r.promise_gets
    (match r.violations with
    | [] -> "verified"
    | vs -> Printf.sprintf "VIOLATIONS: %s" (String.concat "; " vs))
