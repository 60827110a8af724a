(* Isolated self-cost rungs: each layer's basic operation timed alone,
   as the median and p99 over repeated trials, with the trials' spread.
   These are the ladder an end-to-end change is attributed against. *)

open Util

let clock () =
  let sink = ref 0 in
  let ops = 10_000 in
  rung ~name:"clock.now_ns" ~ops (fun () ->
      for _ = 1 to ops do
        sink := !sink lxor Abp.Clock.now ()
      done)

let histogram () =
  let h = Abp.Log_histogram.create () in
  let ops = 10_000 in
  rung ~name:"histogram.record_ns" ~ops (fun () ->
      for i = 1 to ops do
        Abp.Log_histogram.record h ((i * 7919) land 0xFFFFF)
      done)

let injector () =
  let q = Abp.Injector.create ~capacity:1024 () in
  let ops = 10_000 in
  rung ~name:"injector.push_pop_ns" ~ops (fun () ->
      for i = 1 to ops do
        ignore (Abp.Injector.try_push q i);
        ignore (Abp.Injector.try_pop q)
      done)

(* ---- The four deque backends. ---- *)

module type DEQUE = sig
  type 'a t

  val create : ?capacity:int -> unit -> 'a t
  val push_bottom : 'a t -> 'a -> unit
  val pop_bottom : 'a t -> 'a option
  val pop_top : 'a t -> 'a option
end

module Deque_rungs (D : DEQUE) = struct
  let batch = 4_096

  (* push+popBottom pairs by the owner. *)
  let owner name =
    let d = D.create ~capacity:(2 * batch) () in
    rung ~name:(Printf.sprintf "deque.%s.owner_ns" name) ~ops:batch (fun () ->
        for i = 1 to batch do
          D.push_bottom d i;
          ignore (D.pop_bottom d)
        done)

  (* popTop with nobody else touching the deque: refill outside the
     timed region, then steal everything. *)
  let steal name =
    let d = D.create ~capacity:(2 * batch) () in
    let fill () =
      for i = 1 to batch do
        D.push_bottom d i
      done
    in
    let trials = 31 in
    let per_op =
      Array.init trials (fun _ ->
          fill ();
          let t0 = now () in
          for _ = 1 to batch do
            ignore (D.pop_top d)
          done;
          let dt = now () - t0 in
          (* An owner pop on the empty deque resets the fixed-array
             backends' indices before the next refill. *)
          ignore (D.pop_bottom d);
          float_of_int dt /. float_of_int batch)
    in
    { name = Printf.sprintf "deque.%s.steal_ns" name; med = median per_op;
      p99 = quantile per_op 0.99; spread = spread per_op; trials }

  (* popTop while the owner pushes and pops on another domain, keeping
     the deque stocked: the thief's CAS races the owner's bottom. *)
  let contended name =
    let d = D.create ~capacity:(4 * batch) () in
    let stop = Atomic.make false in
    let owner =
      Domain.spawn (fun () ->
          let i = ref 0 and size = ref 0 in
          while not (Atomic.get stop) do
            incr i;
            if !size < batch then begin
              D.push_bottom d !i;
              incr size
            end
            else begin
              ignore (D.pop_bottom d);
              size := 0;
              (* Thieves took an unknown share: drain and restock. *)
              while D.pop_bottom d <> None do () done
            end
          done)
    in
    Fun.protect
      ~finally:(fun () ->
        Atomic.set stop true;
        Domain.join owner)
      (fun () ->
        rung ~name:(Printf.sprintf "deque.%s.contended_steal_ns" name) ~ops:1_000 (fun () ->
            for _ = 1 to 1_000 do
              ignore (D.pop_top d)
            done))

  let all name = [ owner name; steal name; contended name ]
end

module Abp_r = Deque_rungs (Abp.Atomic_deque)
module Circular_r = Deque_rungs (Abp.Circular_deque)
module Locked_r = Deque_rungs (Abp.Locked_deque)
module Wsm_r = Deque_rungs (Abp.Wsm_deque)

let deques () =
  Abp_r.all "abp" @ Circular_r.all "circular" @ Locked_r.all "locked" @ Wsm_r.all "wsm"

(* ---- Pool, Future and Fiber. ---- *)

let pool_run_empty pool =
  let ops = 200 in
  rung ~name:"pool.run_empty_ns" ~ops (fun () ->
      for _ = 1 to ops do
        Abp.Pool.run pool ignore
      done)

let spawn_force pool =
  let ops = 2_000 in
  rung ~name:"future.spawn_force_ns" ~ops (fun () ->
      Abp.Pool.run pool (fun () ->
          for _ = 1 to ops do
            Abp.Future.force (Abp.Future.spawn ignore)
          done))

(* Await a promise a sibling task fulfils: the fiber local resume path. *)
let local_roundtrip pool =
  let ops = 2_000 in
  rung ~name:"fiber.local_roundtrip_ns" ~ops (fun () ->
      Abp.Pool.run pool (fun () ->
          for i = 1 to ops do
            let p = Abp.Fiber.Promise.create () in
            ignore (Abp.Future.spawn (fun () -> Abp.Fiber.Promise.fulfil p i));
            ignore (Abp.Fiber.await p)
          done))

(* Await a promise a domain outside the pool fulfils: the resume-inbox
   path.  The worker publishes each promise in [slot]; the helper spins
   on it.  Also yields the resume lag (fulfil to await return). *)
let inbox_roundtrip () =
  let pool = Abp.Pool.create ~processes:1 () in
  let slot : (int Abp.Fiber.Promise.t * int ref) option Atomic.t = Atomic.make None in
  let stop = Atomic.make false in
  let helper =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          match Atomic.exchange slot None with
          | Some (p, at) ->
              at := now ();
              Abp.Fiber.Promise.fulfil p 1
          | None -> Domain.cpu_relax ()
        done)
  in
  let lags = Buf.create () in
  let ops = 200 in
  let r =
    Fun.protect
      ~finally:(fun () ->
        Atomic.set stop true;
        Domain.join helper;
        Abp.Pool.shutdown pool)
      (fun () ->
        rung ~name:"fiber.inbox_roundtrip_ns" ~ops (fun () ->
            Abp.Pool.run pool (fun () ->
                for _ = 1 to ops do
                  let p = Abp.Fiber.Promise.create () and at = ref 0 in
                  Atomic.set slot (Some (p, at));
                  ignore (Abp.Fiber.await p);
                  Buf.push lags (now () - !at)
                done)))
  in
  (r, Array.map us (Buf.to_array lags))

(* ---- A Shard empty job at low load. ---- *)

type serve_rung = {
  empty : rung;  (** submit to observed outcome, in ns *)
  submit_ns : float array;
  queue_us : float array;
  run_us : float array;
  deadline_ms : float array;  (** submit to outcome, Deadline-lane jobs *)
}

let serve_empty () =
  let shard = Abp.Shard.create ~processes:nproc ~shards:1 () in
  let submit_ns = Buf.create () and queue = Buf.create () and run = Buf.create () in
  let deadline = Buf.create () in
  let ops = 50 and count = ref 0 in
  let one () =
    incr count;
    let lane : Abp.Serve.lane = if !count mod 5 = 0 then Deadline else Bulk in
    let b0 = ref 0 and b1 = ref 0 in
    let t0 = now () in
    let tk =
      match
        Abp.Shard.try_submit shard ~lane (fun () ->
            b0 := now ();
            b1 := now ())
      with
      | Ok t -> t
      | Error _ -> failwith "perfbench: empty job refused"
    in
    let t1 = now () in
    while Abp.Serve.poll tk = None do
      Domain.cpu_relax ()
    done;
    let t2 = now () in
    Buf.push submit_ns (t1 - t0);
    Buf.push queue (!b0 - t1);
    Buf.push run (!b1 - !b0);
    if lane = Deadline then Buf.push deadline (t2 - t0)
  in
  let r =
    Fun.protect
      ~finally:(fun () -> Abp.Shard.shutdown shard)
      (fun () ->
        rung ~name:"serve.empty_job" ~ops (fun () ->
            for _ = 1 to ops do
              one ()
            done))
  in
  {
    empty = r;
    submit_ns = Array.map float_of_int (Buf.to_array submit_ns);
    queue_us = Array.map us (Buf.to_array queue);
    run_us = Array.map us (Buf.to_array run);
    deadline_ms = Array.map ms (Buf.to_array deadline);
  }

type t = {
  rungs : rung list;
  inbox_lag_us : float array;
  serve : serve_rung;
}

let all () =
  let basic = [ clock (); histogram (); injector () ] in
  let deq = deques () in
  let pool = Abp.Pool.create ~processes:nproc () in
  let pr =
    Fun.protect
      ~finally:(fun () -> Abp.Pool.shutdown pool)
      (fun () -> [ pool_run_empty pool; spawn_force pool; local_roundtrip pool ])
  in
  let inbox, inbox_lag_us = inbox_roundtrip () in
  let serve = serve_empty () in
  { rungs = basic @ deq @ pr @ [ inbox; serve.empty ]; inbox_lag_us; serve }
