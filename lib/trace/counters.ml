(* One table of declared counters over a per-worker int array.  Each
   counter is declared exactly once below; its position in the
   declaration order is its slot (and its place in [fields]), and its
   kind alone decides how [add]/[sum] combine it.  Nothing after the
   declarations names a counter except [consistent]/[complete]. *)

type kind = Sum | Peak
type id = int

(* Filled newest-first while the module initialises; [table] freezes it
   in declaration order. *)
let declared : (string * kind) list ref = ref []

(* The first live slot; the slots before it are padding (see [width]). *)
let first = Abp_deque.Padding.cache_line_words

let declare kind name =
  declared := (name, kind) :: !declared;
  first + List.length !declared - 1

let sum = declare Sum
let peak = declare Peak

let pushes = sum "pushes"
let pops = sum "pops"
let steal_attempts = sum "steal_attempts"
let successful_steals = sum "successful_steals"
let stolen_tasks = sum "stolen_tasks"
let steal_empties = sum "steal_empties"
let cas_failures_pop_top = sum "cas_failures_pop_top"
let cas_failures_pop_bottom = sum "cas_failures_pop_bottom"
let yields = sum "yields"
let lock_spins = sum "lock_spins"
let deque_high_water = peak "deque_high_water"
let parks = sum "parks"
let task_exceptions = sum "task_exceptions"
let inject_polls = sum "inject_polls"
let inject_tasks = sum "inject_tasks"
let cross_polls = sum "cross_polls"
let cross_shard_steals = sum "cross_shard_steals"
let cross_stolen_tasks = sum "cross_stolen_tasks"
let gate_suspends = sum "gate_suspends"
let gate_wait_ns = sum "gate_wait_ns"
let directed_yields = sum "directed_yields"
let suspensions = sum "suspensions"
let resumes = sum "resumes"
let suspended_peak = peak "suspended_peak"
let lane_polls = sum "lane_polls"
let lane_tasks = sum "lane_tasks"
let deadline_misses = sum "deadline_misses"

let table = Array.of_list (List.rev !declared)
let scalars = Array.length table

(* Slot layout: one spare cache line, the declared scalars, then at
   least one more spare line, rounded up to a line multiple.  Each array
   is single-writer-hot (its owning worker bumps it on every scheduler
   action), so its live slots must share no line with whatever the
   allocator places before or after it. *)
let width =
  let line = Abp_deque.Padding.cache_line_words in
  line * ((first + scalars + (2 * line) - 1) / line)

(* Every bump reads [slots], so the record is padded as well: a line it
   shared with another worker's writes would miss on each bump. *)
type t = {
  slots : int array;
  (* Victim-indexed successful-steal counts, grown on demand (a counter
     array does not know the pool size at creation).  Row [i] of the
     pool's pairwise steal matrix when this record belongs to worker
     [i]. *)
  mutable victims : int array;
}

let create () = Abp_deque.Padding.copy_as_padded { slots = Array.make width 0; victims = [||] }
let[@inline] get c id = c.slots.(id)
let[@inline] add_n c id n = c.slots.(id) <- c.slots.(id) + n
let[@inline] incr c id = add_n c id 1
let[@inline] note_max c id n = if n > c.slots.(id) then c.slots.(id) <- n

let reset c =
  Array.fill c.slots first scalars 0;
  Array.fill c.victims 0 (Array.length c.victims) 0

let copy c =
  Abp_deque.Padding.copy_as_padded { slots = Array.copy c.slots; victims = Array.copy c.victims }

(* Ensure the victim vector spans index [v]; doubling keeps growth
   amortized O(1) per note on the (cold) first steals from new victims. *)
let ensure_victims c v =
  let n = Array.length c.victims in
  if v >= n then begin
    let n' = max (v + 1) (max 4 (2 * n)) in
    let a = Array.make n' 0 in
    Array.blit c.victims 0 a 0 n;
    c.victims <- a
  end

let note_victim c v =
  if v >= 0 then begin
    ensure_victims c v;
    c.victims.(v) <- c.victims.(v) + 1
  end

let victim_counts c = Array.copy c.victims

let add ~into c =
  Array.iteri
    (fun i (_, kind) ->
      let id = first + i in
      match kind with
      | Sum -> add_n into id (get c id)
      | Peak -> note_max into id (get c id))
    table;
  if Array.length c.victims > 0 then begin
    ensure_victims into (Array.length c.victims - 1);
    Array.iteri (fun i v -> into.victims.(i) <- into.victims.(i) + v) c.victims
  end

(* Shadows the [sum] declarator above: from here on [sum] aggregates. *)
let sum cs =
  let acc = create () in
  Array.iter (fun c -> add ~into:acc c) cs;
  acc

let fields c = List.init scalars (fun i -> (fst table.(i), get c (first + i)))

let consistent c =
  List.for_all (fun (_, v) -> v >= 0) (fields c)
  && get c successful_steals + get c steal_empties + get c cas_failures_pop_top
     <= get c steal_attempts
  && get c stolen_tasks = get c successful_steals

let complete c =
  consistent c
  && get c successful_steals + get c steal_empties + get c cas_failures_pop_top
     = get c steal_attempts

let pp ppf c =
  List.filter (fun (_, v) -> v <> 0) (fields c)
  |> List.iteri (fun i (name, v) -> Fmt.pf ppf "%s%s %d" (if i = 0 then "" else " ") name v)
