(* Shared helpers: the clock, order statistics, self-cost trials and the
   JSON emitter for the result line. *)

let now = Abp.Clock.now
let nproc = Domain.recommended_domain_count ()
let ms ns = float_of_int ns /. 1e6
let us ns = float_of_int ns /. 1e3

let sorted a =
  let b = Array.copy a in
  Array.sort Float.compare b;
  b

(* Nearest-rank quantile of an already sorted array; nan when empty. *)
let quantile_sorted s q =
  let n = Array.length s in
  if n = 0 then nan
  else
    let k = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    s.(max 0 (min (n - 1) k))

let quantile a q = quantile_sorted (sorted a) q
let median a = quantile a 0.5

(* The highest quantile, at most [q], that leaves at least ten samples
   beyond it — the tail percentile a run of [n] samples can support. *)
let supported_quantile n q = Float.min q (1. -. (10. /. float_of_int (max n 1)))

(* Interquartile range as a share of the median. *)
let spread a =
  let s = sorted a in
  let m = quantile_sorted s 0.5 in
  if m = 0. then 0. else (quantile_sorted s 0.75 -. quantile_sorted s 0.25) /. m

(* Split samples into [n] equal time windows of [span] by their time
   stamps [at] (same length as [xs], each in [0, span)). *)
let windows ~n ~span ~at xs =
  let w = Array.make n [] in
  Array.iteri
    (fun i x ->
      let k = max 0 (min (n - 1) (at.(i) * n / max 1 span)) in
      w.(k) <- x :: w.(k))
    xs;
  Array.map Array.of_list w

let ratio num den = if den = 0 then 0. else float_of_int num /. float_of_int den

(* Summed pool telemetry as (name, value) pairs. *)
let pool_fields pools =
  Abp.Trace_counters.fields
    (Abp.Trace_counters.sum (Array.concat (List.map Abp.Pool.counters pools)))

(* Counter growth between two snapshots; high-water marks keep their
   final value. *)
let diff_fields after before =
  List.map
    (fun (k, v) ->
      if List.mem k [ "deque_high_water"; "max_steal_batch"; "suspended_peak" ] then (k, v)
      else (k, v - Option.value ~default:0 (List.assoc_opt k before)))
    after

(* A growable int buffer: the in-memory span store appends to these. *)
module Buf = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 1024 0; n = 0 }

  let push b x =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0 in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    b.a.(b.n) <- x;
    b.n <- b.n + 1

  let to_array b = Array.sub b.a 0 b.n
end

(* One isolated self-cost rung: [trials] timed batches of [ops]
   operations each, reported per operation in nanoseconds. *)
type rung = { name : string; med : float; p99 : float; spread : float; trials : int }

let rung ?(trials = 31) ~name ~ops (batch : unit -> unit) =
  batch ();
  let per_op =
    Array.init trials (fun _ ->
        let t0 = now () in
        batch ();
        float_of_int (now () - t0) /. float_of_int ops)
  in
  { name; med = median per_op; p99 = quantile per_op 0.99; spread = spread per_op; trials }

let pp_rung r =
  Printf.printf "  %-34s median %10.1f ns   p99 %10.1f ns   spread %5.3f  (%d trials)\n" r.name
    r.med r.p99 r.spread r.trials

(* Result-line JSON.  Values are printed with every digit; a non-finite
   value would make the line invalid JSON, so it is reported as 0 and
   flagged on stderr. *)
let json_float name x =
  if Float.is_finite x then Printf.sprintf "%.17g" x
  else begin
    Printf.eprintf "perfbench: metric %s is not finite\n%!" name;
    "0"
  end

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let result_line ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun (name, value, unit) ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string name)
          (json_float name value) (json_string unit))
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed (String.concat ", " m)
