(* Every wait takes the next sequence number.  [blocked] holds the
   numbers of the waits not yet woken; a wake is a grant, the number of
   waits entered when it was given: any blocked wait numbered below it
   may take it.  A signal adds a grant while the blocked waits
   outnumber the grants, so each grant stays matched to a wait that was
   blocked when it was given; a woken wait takes the smallest grant
   above its number, which keeps every other grant matched. *)

type state = { entered : int; blocked : int list; grants : int list }
type t = state Sched_atomic.t

let create () = Sched_atomic.make { entered = 0; blocked = []; grants = [] }
let always _ = true

let wait c m =
  let s =
    Sched_atomic.update_when c always (fun s ->
        { s with entered = s.entered + 1; blocked = s.entered :: s.blocked })
  in
  let me = s.entered in
  Sched_mutex.unlock m;
  let above s = List.filter (fun g -> g > me) s.grants in
  ignore
    (Sched_atomic.update_when c
       (fun s -> above s <> [])
       (fun s ->
         let g = List.fold_left Int.min max_int (above s) in
         let rec drop = function [] -> [] | x :: r -> if x = g then r else x :: drop r in
         { s with blocked = List.filter (( <> ) me) s.blocked; grants = drop s.grants }));
  Sched_mutex.lock m

let signal c =
  ignore
    (Sched_atomic.update_when c always (fun s ->
         if List.length s.blocked > List.length s.grants then { s with grants = s.entered :: s.grants }
         else s))

let broadcast c =
  ignore
    (Sched_atomic.update_when c always (fun s ->
         { s with grants = List.map (fun _ -> s.entered) s.blocked }))
