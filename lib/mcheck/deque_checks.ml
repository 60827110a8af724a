(* The production deques under Sched_explorer, over their generated
   checked copies: ABP's Figure 5 (Atomic_deque_checked) and the
   multiplicity deque (Wsm_deque_checked).  The owner and each thief are
   threads that run their scripts; an [observe] after every step keeps
   the monitors of the relaxed semantics, as the paper states them per
   instant. *)

module E = Sched_explorer
module A = Sched_atomic
module D = Atomic_deque_checked
module W = Wsm_deque_checked
module Ref = Abp_deque.Spec.Reference

type op = Push_bottom of int | Pop_bottom | Pop_top
type program = { owner : op list; thieves : op list list }
type report = { detailed : E.report; option : E.report }
type wsm_report = { run : E.report; serial_executions : int; max_duplicates : int }

let op_name = function
  | Push_bottom v -> Printf.sprintf "pushBottom(%d)" v
  | Pop_bottom -> "popBottom"
  | Pop_top -> "popTop"

(* What an invocation returned.  The option pops give [Nil] for any
   NIL, the [_detailed] ones its cause. *)
type result = Pushed | Got of int | Nil | Empty | Contended

let of_detailed = function Abp_deque.Spec.Got v -> Got v | Empty -> Empty | Contended -> Contended
let of_option = function Some v -> Got v | None -> Nil

(* An invocation, from its first access on: how many accesses it has
   made, and whether since then the deque was empty at some instant,
   another thread removed its top item, or another thread changed the
   deque's contended word ([age] in ABP, [con] in Wsm). *)
type inv = {
  op : op;
  mutable accesses : int;
  mutable empty : bool;
  mutable removed : bool;
  mutable moved : bool;
}

(* [inv] is the invocation in flight; [returned] the one that returned
   during the step [observe] is about to judge. *)
type thread = { mutable inv : inv option; mutable returned : (inv * result) option }

let in_flight t = match t.inv with Some inv -> inv.accesses > 0 | None -> false
let pushed p = List.concat_map (List.filter_map (function Push_bottom v -> Some v | _ -> None)) (p.owner :: p.thieves)

let validate program =
  List.iter
    (List.iter (function
      | Pop_top -> ()
      | op -> invalid_arg ("Deque_checks: thief may only popTop, got " ^ op_name op)))
    program.thieves;
  let p = pushed program in
  if List.length (List.sort_uniq compare p) < List.length p then
    invalid_arg "Deque_checks: pushed values must be distinct"

(* The program's threads, each running its script through [invoke], the
   values they returned, and the monitor.  A step is one access of the
   mover's invocation; after it, [observe] marks every invocation in
   flight [empty] if [empty ()] holds, and, if the mover changed
   [word ()], [moved], and [removed] when the mover's pop also returned a
   value.  An invocation that returned goes to [judge]. *)
let monitor program ~invoke ~empty ~word ~judge =
  let got = ref [] and last = ref (word ()) in
  let threads =
    List.map
      (fun script ->
        let t = { inv = None; returned = None } in
        E.spawn (fun () ->
            List.iter
              (fun op ->
                let inv = { op; accesses = 0; empty = false; removed = false; moved = false } in
                t.inv <- Some inv;
                let r = invoke op in
                (match r with Got v -> got := v :: !got | _ -> ());
                t.inv <- None;
                t.returned <- Some (inv, r))
              script);
        t)
      (program.owner :: program.thieves)
    |> Array.of_list
  in
  let observe i =
    let t = threads.(i) in
    let current = match t.returned with Some (inv, _) -> inv | None -> Option.get t.inv in
    current.accesses <- current.accesses + 1;
    let empty = empty () in
    let moved = word () <> !last in
    let removed = moved && match t.returned with Some (_, Got _) -> true | _ -> false in
    last := word ();
    let mark j inv =
      if inv.accesses > 0 then begin
        if empty then inv.empty <- true;
        if j <> i then begin
          if removed then inv.removed <- true;
          if moved then inv.moved <- true
        end
      end
    in
    Array.iteri (fun j u -> Option.iter (mark j) u.inv) threads;
    match t.returned with
    | None -> []
    | Some (inv, r) ->
        t.returned <- None;
        mark i inv;
        judge inv r
  in
  let ghost () =
    let monitor u =
      match u.inv with
      | None -> -1
      | Some inv ->
          (inv.accesses * 8) + Bool.to_int inv.empty + (2 * Bool.to_int inv.removed)
          + (4 * Bool.to_int inv.moved)
    in
    Array.to_list (Array.map monitor threads) @ (-1 :: List.sort compare !got)
  in
  (threads, got, observe, ghost)

let nil inv what ok = if ok then [] else [ Printf.sprintf "%s returned %s" (op_name inv.op) what ]

let within bound inv =
  if inv.accesses <= bound inv.op then []
  else [ Printf.sprintf "%s took %d accesses (bound %d)" (op_name inv.op) inv.accesses (bound inv.op) ]

(* Figure 5 has no loop: each method makes at most this many accesses. *)
let abp_bound = function Push_bottom _ -> 3 | Pop_bottom -> 7 | Pop_top -> 4

let abp_judge inv r =
  (match r with
  | Pushed | Got _ -> []
  | Nil -> nil inv "NIL with no empty instant nor top removal" (inv.empty || inv.removed)
  | Empty -> nil inv "Empty with no empty instant" inv.empty
  | Contended -> nil inv "Contended with no write of age by another thread" inv.moved)
  @ within abp_bound inv

let abp_scenario ~detailed program () =
  let pushed = pushed program in
  let d = D.create ~capacity:(Int.max 1 (List.length pushed)) () in
  let top () = Age_checked.top (Age_checked.of_packed (A.peek d.age)) in
  let invoke = function
    | Push_bottom v ->
        D.push_bottom d v;
        Pushed
    | Pop_bottom -> if detailed then of_detailed (D.pop_bottom_detailed d) else of_option (D.pop_bottom d)
    | Pop_top -> if detailed then of_detailed (D.pop_top_detailed d) else of_option (D.pop_top d)
  in
  let _, got, observe, ghost =
    monitor program ~invoke ~empty:(fun () -> A.peek d.bot <= top ()) ~word:(fun () -> A.peek d.age)
      ~judge:abp_judge
  in
  (* Every pushed value was returned once or is still in the deque. *)
  let check () =
    let left = List.init (Int.max 0 (A.peek d.bot - top ())) (fun k -> A.peek d.deq.(top () + k)) in
    let sort l = List.sort compare l in
    let accounted = sort (!got @ List.filter_map Fun.id left) in
    if sort pushed = accounted then []
    else
      let show l = String.concat ";" (List.map string_of_int l) in
      [ Printf.sprintf "conservation violated: pushed=[%s] returned+remaining=[%s]" (show (sort pushed))
          (show accounted) ]
  in
  { E.ghost; observe; check }

(* Wsm has no loop either, and in the checked copy the private ring's
   slots are cells too: pushBottom stores its slot and may publish (two
   cursor loads, the oldest slot's load and clear, the board slot, [pub]);
   popBottom loads and clears its slot and may publish; popTop loads
   [con], [pub] and the board slot and stores [con]. *)
let wsm_bound = function Push_bottom _ -> 7 | Pop_bottom -> 8 | Pop_top -> 4

(* A NIL read [con] >= [pub]: with a non-empty window at every instant
   and [con] unchanged by others since its first access (its own load of
   [con]) that cannot be.  A NIL after 3 accesses read an unpublished
   board slot, which the order slot-then-[pub] makes unreachable.  Wsm
   has no CAS to lose, so no Contended. *)
let wsm_judge inv r =
  (match r with
  | Pushed | Got _ -> []
  | (Nil | Empty) when inv.accesses = 3 -> [ op_name inv.op ^ " read an unpublished slot" ]
  | Nil | Empty -> nil inv "NIL with no empty window nor a write of con by another thread" (inv.empty || inv.moved)
  | Contended -> nil inv "Contended" false)
  @ within wsm_bound inv

let wsm_scenario program ~serial_executions ~max_duplicates () =
  let pushed = pushed program in
  let d = W.create ~capacity:(Int.max 1 (List.length pushed)) () in
  let invoke = function
    | Push_bottom v ->
        W.push_bottom d v;
        Pushed
    | Pop_bottom -> of_detailed (W.pop_bottom_detailed d)
    | Pop_top -> of_detailed (W.pop_top_detailed d)
  in
  let window () = A.peek d.pub - A.peek d.con in
  let threads, got, observe, ghost =
    monitor program ~invoke ~empty:(fun () -> window () <= 0) ~word:(fun () -> A.peek d.con) ~judge:wsm_judge
  in
  (* The execution is serial until a step is taken while another
     thread's invocation is in flight.  Until then each return must agree
     with the LIFO oracle, except that a popTop may return the NIL that
     unpublished private work allows (the oracle unchanged). *)
  let serial = ref true and oracle = Ref.create () in
  let replay op r =
    let have = match r with Got v -> Some v | _ -> None in
    let want =
      match (op, have) with
      | Push_bottom v, _ ->
          Ref.push_bottom oracle v;
          None
      | Pop_top, None -> None
      | Pop_top, Some _ -> Ref.pop_top oracle
      | Pop_bottom, _ -> Ref.pop_bottom oracle
    in
    let show = Option.fold ~none:"NIL" ~some:string_of_int in
    if have = want then []
    else [ Printf.sprintf "serial %s returned %s, the LIFO oracle %s" (op_name op) (show have) (show want) ]
  in
  let observe i =
    let returned = threads.(i).returned in
    if List.exists in_flight (List.filteri (fun j _ -> j <> i) (Array.to_list threads)) then serial := false;
    observe i @ match returned with Some (inv, r) when !serial -> replay inv.op r | _ -> []
  in
  (* The owner's plain [head] and [count] place the private ring. *)
  let ghost () =
    let o = if !serial then Ref.to_list oracle else [] in
    d.head :: d.count :: (if !serial then List.length o else -1) :: (o @ ghost ())
  in
  (* At least once: every pushed value was returned or remains (in the
     private ring or the window [con, pub)), and no other value was. *)
  let check () =
    let slot a k = A.peek a.(k mod Array.length a) in
    let remaining =
      List.init d.count (fun k -> slot d.priv (d.head + k))
      @ List.init (Int.max 0 (window ())) (fun k -> slot d.board (A.peek d.con + k))
      |> List.filter_map Fun.id
    in
    if !serial then incr serial_executions;
    max_duplicates := Int.max !max_duplicates (List.length !got - List.length (List.sort_uniq compare !got));
    let fail what v = Printf.sprintf "value %d %s" v what in
    List.filter_map
      (fun v -> if List.mem v !got || List.mem v remaining then None else Some (fail "lost" v))
      pushed
    @ List.filter_map
        (fun v -> if List.mem v pushed then None else Some (fail "returned or remaining, never pushed" v))
        (!got @ remaining)
  in
  { E.ghost; observe; check }

let explore ?(tag_width = Abp_deque.Bounded_tag.max_width) program =
  validate program;
  if tag_width < 0 || tag_width > Abp_deque.Bounded_tag.max_width then
    invalid_arg "Deque_checks: tag_width out of range";
  Age_checked.width := tag_width;
  let run detailed = E.explore (abp_scenario ~detailed program) in
  { detailed = run true; option = run false }

let explore_wsm program =
  validate program;
  let serial_executions = ref 0 and max_duplicates = ref 0 in
  let run = E.explore (wsm_scenario program ~serial_executions ~max_duplicates) in
  { run; serial_executions = !serial_executions; max_duplicates = !max_duplicates }

let violations r =
  List.map (( ^ ) "detailed pops: ") r.detailed.violations
  @ List.map (( ^ ) "option pops: ") r.option.violations

let program_total_ops p = List.length (List.concat (p.owner :: p.thieves))

let pp_report ppf r = Fmt.pf ppf "detailed: %a; option: %a" E.pp_report r.detailed E.pp_report r.option

let pp_wsm_report ppf r =
  Fmt.pf ppf "serial %d  max duplicates %d  %a" r.serial_executions r.max_duplicates E.pp_report r.run

let aba_scenario = { owner = [ Push_bottom 1; Pop_bottom; Push_bottom 2; Pop_bottom ]; thieves = [ [ Pop_top ] ] }

let wraparound_scenario =
  {
    owner = [ Push_bottom 1; Pop_bottom; Push_bottom 2; Pop_bottom; Push_bottom 3; Pop_bottom ];
    thieves = [ [ Pop_top ] ];
  }

let two_thieves = { owner = [ Push_bottom 1; Push_bottom 2; Push_bottom 3 ]; thieves = [ [ Pop_top ]; [ Pop_top ] ] }

let owner_vs_thief_interleave =
  { owner = [ Push_bottom 1; Pop_bottom; Push_bottom 2; Pop_bottom ]; thieves = [ [ Pop_top; Pop_top ] ] }

let wsm_thief =
  {
    owner = [ Push_bottom 1; Push_bottom 2; Pop_bottom; Push_bottom 3; Pop_bottom ];
    thieves = [ [ Pop_top; Pop_top ]; [ Pop_top ] ];
  }

let wsm_reuse =
  { owner = List.concat (List.init 9 (fun i -> [ Push_bottom (i + 1); Pop_bottom ])); thieves = [ [ Pop_top ] ] }

let wsm_reuse_pending =
  {
    owner =
      List.concat
        (List.init 9 (fun i -> [ Push_bottom ((2 * i) + 1); Push_bottom ((2 * i) + 2); Pop_bottom; Pop_bottom ]));
    thieves = [ [ Pop_top ] ];
  }

let random_program ~rng ~ops ~thieves =
  if ops < 0 || thieves < 0 then invalid_arg "Deque_checks.random_program";
  let next = ref 0 in
  let owner =
    List.init ops (fun _ ->
        if rng 2 = 0 then begin
          incr next;
          Push_bottom !next
        end
        else Pop_bottom)
  in
  { owner; thieves = List.init thieves (fun _ -> [ Pop_top ]) }
