(* Workload inputs, made from the seed alone: the same seed (and run
   length) gives the same fork-join arrays, arrival schedule, lanes, key
   sequence and request sizes.  The system under test only ever sees
   these generated values. *)

let rng ~seed ~stream =
  Abp.Rng.create ~seed:(Int64.add (Int64.mul (Int64.of_int seed) 0x9E3779B97F4A7C15L) (Int64.of_int stream)) ()

(* ---- The compute kernel every body and leaf runs. ----

   [compute x n] is a dependent chain of [n] integer steps whose result
   has a closed form, so a request's returned value can be checked
   without redoing its work. *)

let compute x n =
  let acc = ref x in
  for i = 1 to n do
    acc := !acc + (i * x) + 1
  done;
  !acc

let compute_expected x n = x + (x * (n * (n + 1) / 2)) + n

(* ---- Fork-join job inputs. ---- *)

type fj = { leaves : int array; values : int array }

let tree_depth = 10
let reduce_len = 80_000

let fj ~seed =
  let r = rng ~seed ~stream:1 in
  {
    leaves = Array.init (1 lsl tree_depth) (fun _ -> Abp.Rng.int r (1 lsl 30));
    values = Array.init reduce_len (fun _ -> Abp.Rng.int r (1 lsl 30));
  }

(* ---- Open-loop request schedules. ---- *)

type req = {
  due : int;  (** ns after the pass starts *)
  phase : int;  (** index into the pass's phase list *)
  deadline : bool;  (** submitted on the Deadline lane *)
  hot : bool;  (** key class for keyed routing *)
  key : int;  (** index within the key class *)
  x : int;  (** body input *)
  iters : int;  (** compute slice, in [compute] steps *)
}

type phase = { rate : float;  (** arrivals per second *) length : float  (** seconds *) }

let deadline_share = 0.2
let hot_share = 0.8
let keys_per_class = 4

(* Poisson arrivals through each phase in turn; everything else is drawn
   per request from a second stream so the sizes do not depend on the
   arrival gaps. *)
let schedule ~seed ~min_iters ~max_iters phases =
  let gaps = rng ~seed ~stream:2 and draw = rng ~seed ~stream:3 in
  let out = ref [] and start = ref 0. in
  List.iteri
    (fun phase { rate; length } ->
      let t = ref (!start +. Abp.Rng.exponential gaps ~mean:(1. /. rate)) in
      while !t < !start +. length do
        (* Drawn in a fixed order: record fields evaluate in an
           unspecified one. *)
        let deadline = Abp.Rng.bernoulli draw ~p:deadline_share in
        let hot = Abp.Rng.bernoulli draw ~p:hot_share in
        let key = Abp.Rng.int draw keys_per_class in
        let x = Abp.Rng.int draw (1 lsl 30) in
        let iters = Abp.Rng.int_in draw ~lo:min_iters ~hi:max_iters in
        out := { due = int_of_float (!t *. 1e9); phase; deadline; hot; key; x; iters } :: !out;
        t := !t +. Abp.Rng.exponential gaps ~mean:(1. /. rate)
      done;
      start := !start +. length)
    phases;
  Array.of_list (List.rev !out)

let digest_reqs reqs = Digest.to_hex (Digest.string (Marshal.to_string reqs []))
let digest_fj fj = Digest.to_hex (Digest.string (Marshal.to_string fj []))
