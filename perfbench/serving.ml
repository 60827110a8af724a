(* The open-loop serving workload [serve_await], driven through [Shard]:
   two shards of nproc/2 workers, Poisson arrivals at a fixed rate,
   keyed routing skewed so most arrivals land on shard 0.  Every body
   computes, awaits a simulated backend twice and computes again, so
   admission (injector, lanes, park/wake), fiber park/resume through the
   resume inbox, backend wake-ups and cross-shard stealing do the work.
   A fifth of requests go on the Deadline lane with a generous relative
   deadline (so none is dropped).  The traced run appends a stepped ramp
   that finds the highest rate meeting the latency limit. *)

open Util

(* Fixed absolute offered loads, chosen once for a 2-core host; never
   recalibrated per run, so a faster commit sees the same load. *)
let rate = 2_000.
let ramp_rates = [| 2_000.; 4_000.; 8_000.; 12_000.; 16_000.; 20_000.; 24_000. |]
let ramp_step_s = 0.4
let ramp_p99_limit_ms = 5.
let ramp_depth_slack = 64

(* Each compute slice, in [Gen.compute] steps (about a nanosecond each). *)
let min_iters = 20_000
let max_iters = 60_000
let deadline_s = 0.5
let backend_delay = 300e-6
let inbox_capacity = 1 lsl 16
let shards = 2
let processes = max 1 (nproc / 2)

let phases ~seconds ~ramp =
  let main = { Gen.rate; length = seconds } in
  if ramp then main :: Array.to_list (Array.map (fun rate -> { Gen.rate; length = ramp_step_s }) ramp_rates)
  else [ main ]

let schedule ~seed ~seconds ~ramp = Gen.schedule ~seed ~min_iters ~max_iters (phases ~seconds ~ramp)

(* ---- Request bodies and their expected values. ---- *)

let expected (r : Gen.req) =
  let c = Gen.compute_expected in
  c (c r.x r.iters + 1) r.iters

(* Per-request span stamps (absolute ns).  [b1], the body's return, is
   the latency end point and is written on every pass; the rest only on
   the traced pass. *)
type spans = {
  s0 : int array;  (** submit call start *)
  s1 : int array;  (** submit call return *)
  b0 : int array;  (** body start *)
  cs : int array;  (** compute start *)
  ce : int array;  (** first compute end *)
  ws : int array;  (** await 1 start *)
  we : int array;  (** await 1 return *)
  vs : int array;  (** await 2 start *)
  ve : int array;  (** await 2 return *)
  ds : int array;  (** second compute start *)
  de : int array;  (** second compute end *)
  b1 : int array;  (** body return *)
}

let spans n =
  let a () = Array.make n 0 in
  { s0 = a (); s1 = a (); b0 = a (); cs = a (); ce = a (); ws = a (); we = a (); vs = a ();
    ve = a (); ds = a (); de = a (); b1 = a () }

let backend_delay_ns = int_of_float (backend_delay *. 1e9)

(* [wrong] makes the body return a wrong value, to prove the check. *)
let body backend sp ~traced ?(wrong = false) (r : Gen.req) i () =
  let stamp a = if traced then a.(i) <- now () in
  stamp sp.b0;
  stamp sp.cs;
  let v = Gen.compute r.x r.iters in
  stamp sp.ce;
  stamp sp.ws;
  let v = Abp.Fiber.await (Abp.Backend.call backend ~delay:backend_delay v) in
  stamp sp.we;
  stamp sp.vs;
  let v = Abp.Fiber.await (Abp.Backend.call backend ~delay:backend_delay (v + 1)) in
  stamp sp.ve;
  stamp sp.ds;
  let v = Gen.compute v r.iters in
  stamp sp.de;
  sp.b1.(i) <- now ();
  if wrong then v + 1 else v

(* ---- Instances. ---- *)

type inst = {
  shard : Abp.Shard.t;
  backend : Abp.Backend.t;
  keys : int array array;  (** [keys.(0)]: hot keys, [keys.(1)]: cold keys *)
}

(* Keys for keyed routing: the first few integers that route to shard 0
   (the hot class) and to the last shard (the cold class). *)
let find_keys shard =
  let pick target =
    let out = Array.make Gen.keys_per_class 0 and n = ref 0 and key = ref 0 in
    while !n < Gen.keys_per_class do
      if Abp.Shard.shard_of_key shard !key = target then begin
        out.(!n) <- !key;
        incr n
      end;
      incr key
    done;
    out
  in
  [| pick 0; pick (shards - 1) |]

let submit inst (r : Gen.req) f =
  let key = inst.keys.(if r.hot then 0 else 1).(r.key) in
  if r.deadline then Abp.Shard.try_submit inst.shard ~key ~lane:Deadline ~deadline:deadline_s f
  else Abp.Shard.try_submit inst.shard ~key ~lane:Bulk f

let warmup_requests = 200

let rec wait_settled tickets =
  if not (Array.for_all (fun t -> Abp.Serve.poll t <> None) tickets) then begin
    Unix.sleepf 1e-4;
    wait_settled tickets
  end

(* Set-up: start the shards (and the backend domain), route a burst of
   requests of every shape through them and wait until all settle. *)
let setup ~seed =
  let shard = Abp.Shard.create ~processes ~inbox_capacity ~shards () in
  let backend = Abp.Backend.create ~workers:1 () in
  let inst = { shard; backend; keys = find_keys shard } in
  let reqs =
    Gen.schedule ~seed:(seed + 1) ~min_iters ~max_iters [ { Gen.rate = 1e4; length = 0.1 } ]
  in
  let reqs = Array.sub reqs 0 warmup_requests in
  let sp = spans warmup_requests in
  let tickets =
    Array.mapi
      (fun i r ->
        match submit inst r (body backend sp ~traced:true r i) with
        | Ok t -> t
        | Error _ -> failwith "perfbench: warm-up request refused")
      reqs
  in
  wait_settled tickets;
  Array.iteri
    (fun i t ->
      if Abp.Serve.poll t <> Some (Abp.Serve.Returned (expected reqs.(i))) then
        failwith "perfbench: warm-up request returned a wrong value")
    tickets;
  inst

(* ---- Passes. ---- *)

type pass = {
  reqs : Gen.req array;
  sp : spans;
  base : int;  (** absolute ns of due offset 0 *)
  attempted : int;
  failed : int;
  checks : (string * bool) list;  (** conservation checks *)
  counters : (string * int) list;
  cross : int * int * int;  (** polls, steals, tasks *)
  routes : int array;
  depth_at : int array;  (** summed inbox depth at each phase boundary *)
  backend_calls : int;
  shed : int;  (** refused or dropped requests *)
}

let shard_fields shard =
  pool_fields
    (List.init (Abp.Shard.shards shard) (fun i -> Abp.Serve.pool (Abp.Shard.serve shard i)))

let cross_of shard =
  (Abp.Shard.cross_polls shard, Abp.Shard.cross_shard_steals shard, Abp.Shard.cross_stolen_tasks shard)

(* Sleep while the next due time is far enough away for the timer to
   honour it, then spin the remainder. *)
let spin_ns = 50_000

let wait_until t =
  let d = t - now () in
  if d > spin_ns then Unix.sleepf (float_of_int (d - spin_ns) *. 1e-9);
  while now () < t do
    Domain.cpu_relax ()
  done

let conserved_lanes shard =
  List.for_all
    (fun i ->
      let s = Abp.Shard.serve shard i in
      List.for_all
        (fun lane ->
          let l = Abp.Serve.lane_stats s lane in
          l.lane_accepted = l.lane_completed + l.lane_cancelled + l.lane_exceptions)
        Abp.Serve.lanes)
    (List.init (Abp.Shard.shards shard) Fun.id)

let counter name fields = Option.value ~default:0 (List.assoc_opt name fields)

(* Offer [reqs] on schedule from this (the generator) domain, drain,
   check every outcome and the conservation ledgers, and shut down.
   [plant] makes one request return a wrong value. *)
let run_pass inst reqs ~traced ~plant =
  let shard = inst.shard in
  let n = Array.length reqs in
  let sp = spans n in
  let tickets = Array.make n None in
  let before = shard_fields shard and cross0 = cross_of shard in
  let routes0 = Abp.Shard.route_counts shard and calls0 = Abp.Backend.calls inst.backend in
  let base = now () + 2_000_000 in
  let depth_at = Array.make (Array.length ramp_rates + 2) 0 in
  let phase = ref 0 in
  Array.iteri
    (fun i (r : Gen.req) ->
      let due = base + r.due in
      wait_until due;
      if r.phase <> !phase then begin
        phase := r.phase;
        depth_at.(r.phase) <- Array.fold_left ( + ) 0 (Abp.Shard.inbox_depths shard)
      end;
      if traced then sp.s0.(i) <- now ();
      let wrong = plant && i = n / 2 in
      let res = submit inst r (body inst.backend sp ~traced ~wrong r i) in
      if traced then sp.s1.(i) <- now ();
      match res with Ok t -> tickets.(i) <- Some t | Error _ -> ())
    reqs;
  depth_at.(!phase + 1) <- Array.fold_left ( + ) 0 (Abp.Shard.inbox_depths shard);
  let stats = Abp.Shard.drain shard in
  Abp.Backend.stop inst.backend;
  let failed = ref 0 and shed = ref 0 in
  Array.iteri
    (fun i t ->
      match Option.bind t Abp.Serve.poll with
      | Some (Abp.Serve.Returned v) when v = expected reqs.(i) -> ()
      | None | Some (Abp.Serve.Cancelled _) ->
          incr shed;
          incr failed
      | Some _ -> incr failed)
    tickets;
  let cross1 = cross_of shard and routes1 = Abp.Shard.route_counts shard in
  let calls1 = Abp.Backend.calls inst.backend in
  Abp.Shard.shutdown shard;
  let after = shard_fields shard in
  let counters = diff_fields after before in
  let checks =
    [
      ("conserved", Abp.Shard.conserved shard);
      ("lanes_conserved", conserved_lanes shard);
      ("suspended_zero", stats.suspended = 0);
      ("resumes_eq_suspensions", counter "resumes" after = counter "suspensions" after);
    ]
  in
  let p0, s0, k0 = cross0 and p1, s1, k1 = cross1 in
  {
    reqs;
    sp;
    base;
    attempted = n;
    failed = !failed;
    checks;
    counters;
    cross = (p1 - p0, s1 - s0, k1 - k0);
    routes = Array.mapi (fun i r -> r - routes0.(i)) routes1;
    depth_at;
    backend_calls = calls1 - calls0;
    shed = !shed;
  }

(* ---- Figures from a pass. ---- *)

let sojourn_ms p i = ms (p.sp.b1.(i) - (p.base + p.reqs.(i).due))

let select p pred f =
  let out = Buf.create () in
  Array.iteri (fun i r -> if pred r then Buf.push out i) p.reqs;
  Array.map f (Buf.to_array out)

(* Latency of the phase-0 requests (the measured phase). *)
let main_latency p = select p (fun r -> r.phase = 0) (sojourn_ms p)

(* Due times (ns into the pass) and latencies of the phase-0 requests. *)
let main_latency_at p =
  let idx = select p (fun r -> r.phase = 0) Fun.id in
  (Array.map (fun i -> p.reqs.(i).due) idx, Array.map (sojourn_ms p) idx)

let deadline_latency p = select p (fun r -> r.phase = 0 && r.deadline) (sojourn_ms p)

(* The highest ramp step meeting all three conditions — p99 within the
   limit, nothing shed, no inbox growth across the step — with every
   lower step meeting them too; 0 when even the first fails. *)
let max_rate p =
  let best = ref 0. and ok = ref true in
  Array.iteri
    (fun k rate ->
      let step = k + 1 in
      let idx = select p (fun r -> r.phase = step) Fun.id in
      let lat = Array.map (sojourn_ms p) idx in
      let shed =
        Array.exists (fun i -> p.sp.b1.(i) = 0) idx
      in
      let grew = p.depth_at.(step + 1) > p.depth_at.(step) + ramp_depth_slack in
      let p99 = quantile lat (supported_quantile (Array.length lat) 0.99) in
      Printf.printf "  ramp %6.0f req/s: %d requests  p99 %.3f ms  inbox %d -> %d%s\n" rate
        (Array.length lat) p99 p.depth_at.(step) p.depth_at.(step + 1) (if shed then "  shed" else "");
      if !ok && Array.length lat > 0 && (not shed) && (not grew) && p99 <= ramp_p99_limit_ms then
        best := rate
      else ok := false)
    ramp_rates;
  !best

(* Traced-pass span figures, over the phase-0 requests. *)
let span_us p f = select p (fun r -> r.phase = 0) (fun i -> us (f i))

let submit_ns p = Array.map (fun x -> x *. 1e3) (span_us p (fun i -> p.sp.s1.(i) - p.sp.s0.(i)))
let queue_us p = span_us p (fun i -> p.sp.b0.(i) - p.sp.s1.(i))

let run_us p =
  span_us p (fun i -> p.sp.ce.(i) - p.sp.cs.(i) + (p.sp.de.(i) - p.sp.ds.(i)))

let late_us p = span_us p (fun i -> p.sp.s0.(i) - (p.base + p.reqs.(i).due))

let resume_lag_us p =
  let a = span_us p (fun i -> p.sp.we.(i) - p.sp.ws.(i) - backend_delay_ns) in
  let b = span_us p (fun i -> p.sp.ve.(i) - p.sp.vs.(i) - backend_delay_ns) in
  Array.append a b

(* Share of each sojourn not covered by the generator-lateness, submit,
   queue, compute and await spans; median over requests. *)
let unexplained p =
  median
    (select p (fun r -> r.phase = 0) (fun i ->
         let s = p.sp in
         let soj = s.b1.(i) - (p.base + p.reqs.(i).due) in
         let covered =
           (s.s0.(i) - (p.base + p.reqs.(i).due))
           + (s.s1.(i) - s.s0.(i))
           + (s.b0.(i) - s.s1.(i))
           + (s.ce.(i) - s.cs.(i))
           + (s.we.(i) - s.ws.(i))
           + (s.ve.(i) - s.vs.(i))
           + (s.de.(i) - s.ds.(i))
         in
         float_of_int (soj - covered) /. float_of_int soj))

(* Write the traced pass's spans, one line per span: request, name,
   start and end (ns, relative to the pass base), and the causing span. *)
let write_spans p path =
  let oc = open_out path in
  let s = p.sp in
  let line i name parent a b =
    if b > 0 then Printf.fprintf oc "%d\t%s\t%d\t%d\t%s\n" i name (a - p.base) (b - p.base) parent
  in
  output_string oc "request\tspan\tstart_ns\tend_ns\tparent\n";
  Array.iteri
    (fun i (r : Gen.req) ->
      let due = p.base + r.due in
      line i "request" "-" due s.b1.(i);
      line i "gen" "request" due s.s0.(i);
      line i "submit" "request" s.s0.(i) s.s1.(i);
      line i "queue" "request" s.s1.(i) s.b0.(i);
      line i "body" "request" s.b0.(i) s.b1.(i);
      line i "compute" "body" s.cs.(i) s.ce.(i);
      line i "await" "body" s.ws.(i) s.we.(i);
      line i "await" "body" s.vs.(i) s.ve.(i);
      line i "compute" "body" s.ds.(i) s.de.(i))
    p.reqs;
  close_out oc
