module type S = sig
  type 'a t

  val create : ?capacity:int -> unit -> 'a t
  val push_bottom : 'a t -> 'a -> unit
  val pop_bottom : 'a t -> 'a option
  val pop_top : 'a t -> 'a option
  val is_empty : 'a t -> bool
  val size : 'a t -> int
end

(* Each deque writes Figure 5's three methods once, over slots that hold
   the element itself: a pop returns that element, or one of the two
   sentinels given at [create] ([empty]: observed empty; [lost]: lost a
   CAS, or the last item to a thief).  The pool's tasks are closures
   and its sentinels two private ones, so its owner path boxes nothing;
   [Of_core] derives the option API with [None] as both sentinels. *)
module type CORE = sig
  type 'e t

  val create : ?capacity:int -> empty:'e -> lost:'e -> unit -> 'e t
  val push : 'e t -> 'e -> int
  val pop_bottom : 'e t -> 'e
  val pop_top : 'e t -> 'e
  val size : 'e t -> int
end

module Of_core (C : CORE) = struct
  type 'a t = 'a option C.t

  let create ?capacity () = C.create ?capacity ~empty:None ~lost:None ()
  let push_bottom t x = ignore (C.push t (Some x))
  let pop_bottom = C.pop_bottom
  let pop_top = C.pop_top
  let size = C.size
  let is_empty t = C.size t = 0
end

module Reference = struct
  (* Items are kept in a list with the TOP at the head: pop_top is O(1),
     owner methods are O(n) - fine for an oracle. *)
  type 'a t = { mutable items : 'a list }

  let create ?capacity:_ () = { items = [] }
  let push_bottom t x = t.items <- t.items @ [ x ]

  let pop_bottom t =
    match List.rev t.items with
    | [] -> None
    | last :: rest_rev ->
        t.items <- List.rev rest_rev;
        Some last

  let pop_top t =
    match t.items with
    | [] -> None
    | top :: rest ->
        t.items <- rest;
        Some top

  let is_empty t = t.items = []
  let size t = List.length t.items
  let to_list t = t.items
end

(* Multiset oracle for relaxed backends with multiplicity: instead of
   tracking order, track how many times each item was pushed and how
   many times it has been extracted.  An extraction of [x] is
   - [Unique]       if extracted-count < pushed-count afterwards stays
                    within the pushes seen so far (a fresh copy),
   - [Duplicate]    if [x] was pushed but every pushed copy has already
                    been extracted (legal only under multiplicity),
   - [Never_pushed] if [x] was never pushed at all (always a bug).
   Keyed by the item itself, so differential tests should push distinct
   values (the QCheck/stress suites use a running integer). *)
module Multiset_reference = struct
  type verdict = Unique | Duplicate | Never_pushed

  type 'a t = {
    pushed : ('a, int) Hashtbl.t;
    extracted : ('a, int) Hashtbl.t;
    mutable n_pushed : int;
    mutable n_unique : int;
    mutable n_duplicate : int;
    mutable n_never_pushed : int;
  }

  let create () =
    {
      pushed = Hashtbl.create 64;
      extracted = Hashtbl.create 64;
      n_pushed = 0;
      n_unique = 0;
      n_duplicate = 0;
      n_never_pushed = 0;
    }

  let count tbl x = Option.value ~default:0 (Hashtbl.find_opt tbl x)

  let push t x =
    Hashtbl.replace t.pushed x (count t.pushed x + 1);
    t.n_pushed <- t.n_pushed + 1

  let extract t x =
    let p = count t.pushed x in
    let e = count t.extracted x in
    Hashtbl.replace t.extracted x (e + 1);
    if p = 0 then begin
      t.n_never_pushed <- t.n_never_pushed + 1;
      Never_pushed
    end
    else if e < p then begin
      t.n_unique <- t.n_unique + 1;
      Unique
    end
    else begin
      t.n_duplicate <- t.n_duplicate + 1;
      Duplicate
    end

  let pushes t = t.n_pushed
  let uniques t = t.n_unique
  let duplicates t = t.n_duplicate
  let never_pushed t = t.n_never_pushed

  (* Items pushed and not yet extracted even once: what a complete
     drain must still surface. *)
  let outstanding t =
    Hashtbl.fold
      (fun x p acc -> acc + max 0 (p - count t.extracted x))
      t.pushed 0

  (* The whole-history judgment: extractions never invent items, and
     duplicates appear only where the backend's contract allows them. *)
  let legal ~allows_multiplicity t =
    t.n_never_pushed = 0 && (allows_multiplicity || t.n_duplicate = 0)
end
