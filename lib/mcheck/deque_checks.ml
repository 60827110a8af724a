(* The production ABP deque under Sched_explorer, over its generated
   Atomic_deque_checked copy.  The owner and each thief are threads that
   run their scripts; an [observe] after every step keeps the monitors
   of the relaxed semantics, as the paper states them per instant. *)

module E = Sched_explorer
module A = Sched_atomic
module D = Atomic_deque_checked

type op = Push_bottom of int | Pop_bottom | Pop_top
type program = { owner : op list; thieves : op list list }
type report = { detailed : E.report; option : E.report }

let op_name = function
  | Push_bottom v -> Printf.sprintf "pushBottom(%d)" v
  | Pop_bottom -> "popBottom"
  | Pop_top -> "popTop"

(* Figure 5 has no loop: each method makes at most this many accesses. *)
let bound = function Push_bottom _ -> 3 | Pop_bottom -> 7 | Pop_top -> 4

(* What an invocation returned.  The option pops give [Nil] for any
   NIL, the [_detailed] ones its cause. *)
type result = Pushed | Got of int | Nil | Empty | Contended

let of_detailed = function Abp_deque.Spec.Got v -> Got v | Empty -> Empty | Contended -> Contended
let of_option = function Some v -> Got v | None -> Nil

let invoke ~detailed d = function
  | Push_bottom v ->
      D.push_bottom d v;
      Pushed
  | Pop_bottom -> if detailed then of_detailed (D.pop_bottom_detailed d) else of_option (D.pop_bottom d)
  | Pop_top -> if detailed then of_detailed (D.pop_top_detailed d) else of_option (D.pop_top d)

(* An invocation, from its first access on: how many accesses it has
   made, and whether since then the deque was empty at some instant,
   another thread removed its top item, or another thread wrote [age]. *)
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

let judge inv r =
  let nil what ok = if ok then [] else [ Printf.sprintf "%s returned %s" (op_name inv.op) what ] in
  (match r with
  | Pushed | Got _ -> []
  | Nil -> nil "NIL with no empty instant nor top removal" (inv.empty || inv.removed)
  | Empty -> nil "Empty with no empty instant" inv.empty
  | Contended -> nil "Contended with no write of age by another thread" inv.moved)
  @
  if inv.accesses <= bound inv.op then []
  else [ Printf.sprintf "%s took %d accesses (bound %d)" (op_name inv.op) inv.accesses (bound inv.op) ]

let scenario ~detailed program () =
  let scripts = program.owner :: program.thieves in
  let pushed = List.concat_map (List.filter_map (function Push_bottom v -> Some v | _ -> None)) scripts in
  let d = D.create ~capacity:(Int.max 1 (List.length pushed)) () in
  let top () = Age_checked.top (Age_checked.of_packed (A.peek d.age)) in
  let got = ref [] and age = ref (A.peek d.age) in
  let threads =
    List.map
      (fun script ->
        let t = { inv = None; returned = None } in
        E.spawn (fun () ->
            List.iter
              (fun op ->
                let inv = { op; accesses = 0; empty = false; removed = false; moved = false } in
                t.inv <- Some inv;
                let r = invoke ~detailed d op in
                (match r with Got v -> got := v :: !got | _ -> ());
                t.inv <- None;
                t.returned <- Some (inv, r))
              script);
        t)
      scripts
    |> Array.of_list
  in
  (* A step is one access of the mover's invocation.  A pop that
     returns a value and writes [age] removed the top item. *)
  let observe i =
    let t = threads.(i) in
    let current = match t.returned with Some (inv, _) -> inv | None -> Option.get t.inv in
    current.accesses <- current.accesses + 1;
    let empty = A.peek d.bot <= top () in
    let moved = A.peek d.age <> !age in
    let removed = moved && match t.returned with Some (_, Got _) -> true | _ -> false in
    age := A.peek d.age;
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

let explore ?(tag_width = Abp_deque.Bounded_tag.max_width) program =
  List.iter
    (List.iter (function
      | Pop_top -> ()
      | op -> invalid_arg ("Deque_checks: thief may only popTop, got " ^ op_name op)))
    program.thieves;
  if tag_width < 0 || tag_width > Abp_deque.Bounded_tag.max_width then
    invalid_arg "Deque_checks: tag_width out of range";
  Age_checked.width := tag_width;
  let run detailed = E.explore (scenario ~detailed program) in
  { detailed = run true; option = run false }

let violations r =
  List.map (( ^ ) "detailed pops: ") r.detailed.violations
  @ List.map (( ^ ) "option pops: ") r.option.violations

let program_total_ops p = List.length (List.concat (p.owner :: p.thieves))

let pp_report ppf r = Fmt.pf ppf "detailed: %a; option: %a" E.pp_report r.detailed E.pp_report r.option

let aba_scenario = { owner = [ Push_bottom 1; Pop_bottom; Push_bottom 2; Pop_bottom ]; thieves = [ [ Pop_top ] ] }

let wraparound_scenario =
  {
    owner = [ Push_bottom 1; Pop_bottom; Push_bottom 2; Pop_bottom; Push_bottom 3; Pop_bottom ];
    thieves = [ [ Pop_top ] ];
  }

let two_thieves = { owner = [ Push_bottom 1; Push_bottom 2; Push_bottom 3 ]; thieves = [ [ Pop_top ]; [ Pop_top ] ] }

let owner_vs_thief_interleave =
  { owner = [ Push_bottom 1; Pop_bottom; Push_bottom 2; Pop_bottom ]; thieves = [ [ Pop_top; Pop_top ] ] }

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
