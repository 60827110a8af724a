open Effect.Deep
module A = Sched_atomic

type scenario = {
  ghost : unit -> int list;
  observe : int -> string list;
  check : unit -> string list;
}
type report = { states_explored : int; complete_executions : int; violations : string list }

(* [next] runs the thread to its next access, or to its end; [None] once
   it has finished.  [enabled] says whether that access can be made now:
   false while the thread is blocked on a mutex or a condition. *)
type thread = {
  mutable hist : int;
  mutable next : (unit -> unit) option;
  mutable enabled : unit -> bool;
}

let threads = ref [||]
let unstarted = Queue.create ()
let violations = ref []
let note v = if not (List.mem v !violations) then violations := v :: !violations

let handler t =
  {
    retc = ignore;
    exnc = (fun e -> note ("a thread raised " ^ Printexc.to_string e));
    effc =
      (fun (type a) (e : a Effect.t) ->
        match e with
        | A.Yield enabled ->
            Some
              (fun (k : (a, unit) continuation) ->
                t.enabled <- enabled;
                t.next <- Some (fun () -> continue k ()))
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
  t.next <- Some (fun () -> match_with body () (handler t));
  threads := Array.append !threads [| t |];
  Queue.add t unstarted

let run t =
  let go = Option.get t.next in
  t.next <- None;
  A.hist := t.hist;
  A.running := true;
  go ();
  A.running := false;
  t.hist <- !A.hist

(* New threads run up to their first access, which touches no cell, so
   starting them is no choice. *)
let start () =
  while not (Queue.is_empty unstarted) do
    run (Queue.pop unstarted)
  done

let step sc i =
  run !threads.(i);
  List.iter note (sc.observe i);
  start ()

let replay setup prefix =
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
