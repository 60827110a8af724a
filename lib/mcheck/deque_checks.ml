(* The production deques under Sched_explorer, over the cores of their
   generated checked copies: ABP's Figure 5 (Atomic_deque_checked), the
   Chase-Lev deque (Circular_deque_checked) and the multiplicity deque
   (Wsm_deque_checked).  The owner and each thief are threads that run
   their scripts; an [observe] after every step keeps the monitors of
   the relaxed semantics, as the paper states them per instant. *)

module E = Sched_explorer
module A = Sched_atomic
module D = Atomic_deque_checked.Core
module C = Circular_deque_checked.Core
module W = Wsm_deque_checked.Core
module Ref = Abp_deque.Spec.Reference

type op = Push_bottom of int | Pop_bottom | Pop_top
type program = { owner : op list; thieves : op list list }
type wsm_report = { run : E.report; serial_executions : int; max_duplicates : int }

let op_name = function
  | Push_bottom v -> Printf.sprintf "pushBottom(%d)" v
  | Pop_bottom -> "popBottom"
  | Pop_top -> "popTop"

(* Every deque is made with these sentinels, so a pop's result is
   classified by its value. *)
let empty = -1
let lost = -2

type result = Pushed | Got of int | Empty | Lost

let invoke ~push ~pop_bottom ~pop_top d op =
  let classify v = if v = empty then Empty else if v = lost then Lost else Got v in
  match op with
  | Push_bottom v ->
      ignore (push d v);
      Pushed
  | Pop_bottom -> classify (pop_bottom d)
  | Pop_top -> classify (pop_top d)

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
    invalid_arg "Deque_checks: pushed values must be distinct";
  if List.exists (fun v -> v = empty || v = lost) p then
    invalid_arg "Deque_checks: a pushed value equals a sentinel"

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

(* Figure 5 has no loop: each method makes at most this many accesses
   (pushBottom's fourth reads [age] for the size it leaves). *)
let abp_bound = function Push_bottom _ -> 4 | Pop_bottom -> 7 | Pop_top -> 4

(* An [Empty] saw an empty instant.  A [Lost] saw another thread write
   the contended [word], and, as any NIL must, an empty instant or a
   top removal. *)
let judge ~word bound inv r =
  (match r with
  | Pushed | Got _ -> []
  | Empty -> nil inv "Empty with no empty instant" inv.empty
  | Lost ->
      nil inv "Lost with no empty instant nor top removal" (inv.empty || inv.removed)
      @ nil inv ("Lost with no write of " ^ word ^ " by another thread") inv.moved)
  @ within bound inv

(* Every pushed value was returned once or is still in the deque. *)
let conserved pushed got left =
  let sort l = List.sort compare l in
  let accounted = sort (got @ left) in
  if sort pushed = accounted then []
  else
    let show l = String.concat ";" (List.map string_of_int l) in
    [ Printf.sprintf "conservation violated: pushed=[%s] returned+remaining=[%s]" (show (sort pushed))
        (show accounted) ]

let abp_scenario program () =
  let pushed = pushed program in
  let d = D.create ~capacity:(Int.max 1 (List.length pushed)) ~empty ~lost () in
  let top () = Age_checked.top (Age_checked.of_packed (A.peek d.age)) in
  let _, got, observe, ghost =
    monitor program
      ~invoke:(invoke ~push:D.push ~pop_bottom:D.pop_bottom ~pop_top:D.pop_top d)
      ~empty:(fun () -> A.peek d.bot <= top ())
      ~word:(fun () -> A.peek d.age)
      ~judge:(judge ~word:"age" abp_bound)
  in
  let check () =
    conserved pushed !got (List.init (Int.max 0 (A.peek d.bot - top ())) (fun k -> A.peek d.deq.(top () + k)))
  in
  { E.ghost; observe; check }

(* Chase-Lev has no loop but the grow and shrink copies, of at most
   [capacity / 2] live elements on a push and fewer than [capacity / 4]
   on a popBottom, where [capacity] is the largest buffer the program
   can reach; each copied element is a load and a store.  Outside the
   copies, pushBottom loads [bottom], [top] and the buffer, stores the
   slot and [bottom], and a grow or shrink adds a load of the buffer,
   its publish and the count; popBottom makes at most 10 accesses
   (with a shrink) and popTop 5. *)
let circular_bound ~capacity = function
  | Push_bottom _ -> 8 + capacity
  | Pop_bottom -> 10 + (capacity / 2)
  | Pop_top -> 5

let circular_scenario program () =
  let pushed = pushed program in
  let rec reach c = if c >= List.length pushed then c else reach (2 * c) in
  let d = C.create ~capacity:2 ~empty ~lost () in
  let top () = A.peek d.top and bottom () = A.peek d.bottom in
  let _, got, observe, ghost =
    monitor program
      ~invoke:(invoke ~push:C.push ~pop_bottom:C.pop_bottom ~pop_top:C.pop_top d)
      ~empty:(fun () -> bottom () <= top ())
      ~word:top
      ~judge:(judge ~word:"top" (circular_bound ~capacity:(reach 2)))
  in
  let check () =
    let buf = A.peek d.active in
    conserved pushed !got
      (List.init (Int.max 0 (bottom () - top ())) (fun k -> A.peek buf.seg.((top () + k) land buf.mask)))
  in
  { E.ghost; observe; check }

(* Wsm has no loop either, and in the checked copy the private ring's
   slots are cells too: pushBottom stores its slot and may publish (two
   cursor loads, the oldest slot's load and clear, the board slot, [pub]);
   popBottom loads and clears its slot and may publish; popTop loads
   [con], [pub] and the board slot and stores [con]. *)
let wsm_bound = function Push_bottom _ -> 7 | Pop_bottom -> 8 | Pop_top -> 4

(* An [Empty] read [con] >= [pub]: with a non-empty window at every
   instant and [con] unchanged by others since its first access (its own
   load of [con]) that cannot be.  An [Empty] after 3 accesses read an
   unpublished board slot, which the order slot-then-[pub] makes
   unreachable.  Wsm has no CAS to lose, so no [Lost]. *)
let wsm_judge inv r =
  (match r with
  | Pushed | Got _ -> []
  | Empty when inv.accesses = 3 -> [ op_name inv.op ^ " read an unpublished slot" ]
  | Empty -> nil inv "Empty with no empty window nor a write of con by another thread" (inv.empty || inv.moved)
  | Lost -> nil inv "Lost" false)
  @ within wsm_bound inv

let wsm_scenario program ~serial_executions ~max_duplicates () =
  let pushed = pushed program in
  let d = W.create ~capacity:(Int.max 1 (List.length pushed)) ~empty ~lost () in
  let window () = A.peek d.pub - A.peek d.con in
  let threads, got, observe, ghost =
    monitor program
      ~invoke:(invoke ~push:W.push ~pop_bottom:W.pop_bottom ~pop_top:W.pop_top d)
      ~empty:(fun () -> window () <= 0)
      ~word:(fun () -> A.peek d.con)
      ~judge:wsm_judge
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
  E.explore (abp_scenario program)

let explore_circular program =
  validate program;
  E.explore (circular_scenario program)

let explore_wsm program =
  validate program;
  let serial_executions = ref 0 and max_duplicates = ref 0 in
  let run = E.explore (wsm_scenario program ~serial_executions ~max_duplicates) in
  { run; serial_executions = !serial_executions; max_duplicates = !max_duplicates }

let program_total_ops p = List.length (List.concat (p.owner :: p.thieves))

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

let circular_programs =
  let push n = List.init n (fun i -> Push_bottom (i + 1)) and pop n = List.init n (fun _ -> Pop_bottom) in
  [
    ("grow vs greedy thief", { owner = push 3; thieves = [ [ Pop_top; Pop_top ] ] });
    ("grow, pops vs thief", { owner = push 3 @ pop 2; thieves = [ [ Pop_top ] ] });
    ("grow twice, shrink", { owner = push 5 @ pop 4; thieves = [ [ Pop_top ] ] });
    ("last vs two thieves", { owner = push 2 @ pop 1; thieves = [ [ Pop_top ]; [ Pop_top ] ] });
    ("last vs greedy thief", { owner = push 2 @ pop 1; thieves = [ [ Pop_top; Pop_top ] ] });
    ("grow vs two thieves", { owner = push 3 @ pop 1; thieves = [ [ Pop_top ]; [ Pop_top ] ] });
  ]

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
