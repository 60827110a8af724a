open Effect.Deep
module A = Sched_atomic

type scenario = {
  ghost : unit -> int list;
  observe : int -> string list;
  check : unit -> string list;
}
type report = { states_explored : int; complete_executions : int; violations : string list }

(* [next] resumes the thread at its next access; [None] once it has
   finished, or until it has started.  [enabled] says whether that
   access can be made now: false while the thread is blocked on a mutex
   or a condition. *)
type thread = {
  mutable hist : int;
  mutable next : (unit, unit) continuation option;
  mutable enabled : unit -> bool;
}

let threads = ref [||]
let unstarted = Queue.create ()
let violations = ref []
let note v = if not (List.mem v !violations) then violations := v :: !violations

(* Raised into an abandoned thread's continuation at a replay, so that
   its stack unwinds and is freed; [releasing] keeps whatever that
   unwinding raises out of the violations. *)
exception Released

let releasing = ref false

let handler t =
  {
    retc = ignore;
    exnc =
      (function
      | (Out_of_memory | Stack_overflow) as e -> raise e
      | e -> if not !releasing then note ("a thread raised " ^ Printexc.to_string e));
    effc =
      (fun (type a) (e : a Effect.t) ->
        match e with
        | A.Yield enabled ->
            Some
              (fun (k : (a, unit) continuation) ->
                t.enabled <- enabled;
                t.next <- Some k)
        | _ -> None);
  }

let spawn ?role body =
  let seed =
    match role with
    | Some r -> A.intern 0 (-3, r, 0)
    | None ->
        let h = !A.hist in
        A.hist := A.intern h (-1, 0, 0);
        A.intern h (-2, 0, 0)
  in
  let t = { hist = seed; next = None; enabled = (fun () -> true) } in
  threads := Array.append !threads [| t |];
  Queue.add (t, body) unstarted

(* Run [go] as thread [t], up to its next access or its end. *)
let enter t go =
  A.hist := t.hist;
  A.running := true;
  go ();
  A.running := false;
  t.hist <- !A.hist

let run t =
  let k = Option.get t.next in
  t.next <- None;
  enter t (fun () -> continue k ())

(* New threads run up to their first access, which touches no cell, so
   starting them is no choice. *)
let start () =
  while not (Queue.is_empty unstarted) do
    let t, body = Queue.pop unstarted in
    enter t (fun () -> match_with body () (handler t))
  done

(* Discontinue every live thread, and again at each access its unwinding
   makes, so that no abandoned fiber keeps its stack. *)
let release () =
  releasing := true;
  Fun.protect
    ~finally:(fun () ->
      releasing := false;
      A.running := false)
    (fun () ->
      Array.iter
        (fun t ->
          while Option.is_some t.next do
            let k = Option.get t.next in
            t.next <- None;
            enter t (fun () -> discontinue k Released)
          done)
        !threads)

let step sc i =
  run !threads.(i);
  List.iter note (sc.observe i);
  start ()

let replay setup prefix =
  release ();
  A.reset ();
  threads := [||];
  Queue.clear unstarted;
  let sc = setup () in
  start ();
  List.iter (step sc) prefix;
  sc

let live () =
  List.filter (fun i -> Option.is_some !threads.(i).next) (List.init (Array.length !threads) Fun.id)

let enabled () = List.filter (fun i -> !threads.(i).enabled ()) (live ())

let key sc =
  let hists = List.sort compare (List.map (fun i -> !threads.(i).hist) (live ())) in
  let memory = List.concat_map (fun (l, v) -> [ l; v ]) (A.memory ()) in
  Array.of_list (hists @ (-1 :: memory) @ (-1 :: sc.ghost ()))

module Seen = Hashtbl.Make (struct
  type t = int array

  let equal = ( = )
  let hash = Array.fold_left (fun h x -> (h * 31) + x) 7
end)

let max_steps = 200

let explore setup =
  violations := [];
  let seen = Seen.create 4096 and executions = ref 0 in
  let sc = ref (replay setup []) in
  (* The last replay's threads are released too, also when an
     [Out_of_memory] or a [Stack_overflow] ends the run. *)
  Fun.protect ~finally:release @@ fun () ->
  let rec visit prefix depth =
    let k = key !sc in
    if not (Seen.mem seen k) then begin
      Seen.add seen k ();
      match enabled () with
      | [] ->
          incr executions;
          List.iter note (!sc.check ())
      | _ when depth >= max_steps -> note (Printf.sprintf "step bound %d reached" max_steps)
      | first :: _ as ids ->
          List.iter
            (fun i ->
              if i <> first then sc := replay setup (List.rev prefix);
              step !sc i;
              visit (i :: prefix) (depth + 1))
            ids
    end
  in
  visit [] 0;
  { states_explored = Seen.length seen; complete_executions = !executions;
    violations = List.rev !violations }

let pp_report ppf r =
  Fmt.pf ppf "states %d  terminal %d  %s" r.states_explored r.complete_executions
    (match r.violations with
    | [] -> "verified"
    | vs -> "VIOLATIONS: " ^ String.concat "; " vs)
