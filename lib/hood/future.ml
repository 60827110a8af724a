(* The public face of {!Future_impl}: a spawn reads the calling
   domain's worker itself. *)

type 'a t = 'a Future_impl.t

let spawn f = Future_impl.spawn_on (Worker.current ()) f
let force = Future_impl.force
let is_resolved = Future_impl.is_resolved

let both f g =
  let fa = spawn f in
  let b = g () in
  let a = force fa in
  (a, b)
