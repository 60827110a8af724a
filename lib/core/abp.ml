(** Single entry point for the reproduction of Arora, Blumofe, Plaxton,
    "Thread Scheduling for Multiprogrammed Multiprocessors" (SPAA 1998).

    The paper's contribution — the non-blocking work stealer over the ABP
    deque, analyzed against an adversarial kernel — is spread over the
    sublibraries re-exported here:

    - {!Dag}, {!Builder}, {!Metrics}, {!Generators}, {!Enabling_tree},
      {!Figure1}: multithreaded computations as dags (Sections 1-2).
    - {!Deque_spec}, {!Age}, {!Atomic_deque}, {!Locked_deque},
      {!Bounded_tag}: the Figure 4/5 deque (Section 3.2-3.3).
    - {!Wsm_deque}: the fence-free deque with multiplicity
      (Castañeda–Piña, arXiv 2008.04424); {!Deque_checks} model-checks
      its relaxed contract on the production code.
    - {!Schedule}, {!Adversary}, {!Yield}: the kernel model (Sections 2, 4.4).
    - {!Exec_schedule}, {!Greedy}, {!Brent}, {!Bounds}: off-line
      scheduling, Theorems 1-2.
    - {!Engine}, {!Central_sched}, {!Invariants}, {!Run_result}: the
      two-level simulator reproducing Theorems 9-12 and the Hood
      empirical claims.
    - {!Deque_checks}: exhaustive interleaving verification of the
      production deques' relaxed semantics (the TR-99-11 substitute).
    - {!Pool}, {!Future}, {!Par}: Hood, the real runtime on OCaml 5
      domains.
    - {!Fiber} (library [abp_fiber]): effects-based suspendable tasks —
      an [Await] effect and a promise API; a pending [await] parks the
      one-shot continuation on the promise and returns the worker to
      the Figure 3 loop, and [fulfil] re-injects the continuation as an
      ordinary task.  [Abp_mcheck.Promise_checks] model-checks the
      production park/fulfil race and the lean future's
      publish/install race exhaustively, over generated copies of
      [fiber.ml] and [future_impl.ml] whose every atomic access is a
      scheduling point.
    - {!Shard}, {!Serve}, {!Injector}, {!Backend}: the serving layer —
      external task submission from arbitrary domains through bounded
      multi-producer injector inboxes, with admission control
      (backpressure, deadlines, cancellation), graceful drain, and the
      sharded multi-pool topology with locality-biased bounded
      cross-shard stealing.  {!Serve} is [Shard.Serve]: the request
      vocabulary (lanes, tickets, outcomes) and per-shard views.
    - {!Gate}, {!Controller}, {!Antagonist} (library [abp_mp]): the
      multiprogramming harness — the Section 4.4 kernel adversary
      replayed against the {e real} pool through cooperative preemption
      gates, measuring the processor average [Pbar] on hardware
      (experiment E29).
    - {!Trace} ({!Abp_trace.Counters}, {!Abp_trace.Sink},
      {!Abp_trace.Chrome}, {!Abp_trace.Report}): the scheduler telemetry
      layer — per-worker counters, bounded event rings, Chrome
      trace-event and text exporters (Section 5's measurements).
    - {!Rng}, {!Descriptive}, {!Regression}, {!Histogram}, {!Montecarlo}:
      deterministic randomness and statistics for the experiments.
    - {!Log_histogram}: HDR-style log-linear latency histograms with
      bounded relative quantile error and per-worker sharded recording;
      {!Clock}: the monotonic nanosecond timestamp source — the
      tail-latency measurement substrate (experiment E32). *)

(* Statistics substrate *)
module Rng = Abp_stats.Rng
module Descriptive = Abp_stats.Descriptive
module Regression = Abp_stats.Regression
module Histogram = Abp_stats.Histogram
module Log_histogram = Abp_stats.Log_histogram
module Montecarlo = Abp_stats.Montecarlo
module Ascii_plot = Abp_stats.Ascii_plot

(* Computation dags *)
module Dag = Abp_dag.Dag
module Builder = Abp_dag.Builder
module Metrics = Abp_dag.Metrics
module Generators = Abp_dag.Generators
module Enabling_tree = Abp_dag.Enabling_tree
module Figure1 = Abp_dag.Figure1
module Dot = Abp_dag.Dot
module Sp = Abp_dag.Sp
module Strictness = Abp_dag.Strictness
module Script = Abp_dag.Script

(* Deques *)
module Deque_spec = Abp_deque.Spec
module Age = Abp_deque.Age
module Atomic_deque = Abp_deque.Atomic_deque
module Locked_deque = Abp_deque.Locked_deque
module Bounded_tag = Abp_deque.Bounded_tag
module Circular_deque = Abp_deque.Circular_deque
module Wsm_deque = Abp_deque.Wsm_deque

(* Kernel model *)
module Schedule = Abp_kernel.Schedule
module Adversary = Abp_kernel.Adversary
module Adversary_spec = Abp_kernel.Adversary_spec
module Yield = Abp_kernel.Yield

(* Off-line scheduling *)
module Exec_schedule = Abp_sched.Exec_schedule
module Greedy = Abp_sched.Greedy
module Brent = Abp_sched.Brent
module Bounds = Abp_sched.Bounds
module Optimal = Abp_sched.Optimal

(* Simulator *)
module Engine = Abp_sim.Engine
module Central_sched = Abp_sim.Central_sched
module Invariants = Abp_sim.Invariants
module Run_result = Abp_sim.Run_result

(* Model checker *)
module Deque_checks = Abp_mcheck.Deque_checks

(* Telemetry *)
module Trace = Abp_trace
module Trace_counters = Abp_trace.Counters
module Trace_sink = Abp_trace.Sink
module Clock = Abp_trace.Clock

(* Suspendable tasks: Await effect + promises *)
module Fiber = Abp_fiber.Fiber

(* Hood runtime *)
module Pool = Abp_hood.Pool
module Future = Abp_hood.Future
module Par = Abp_hood.Par
module Algos = Abp_hood.Algos
module Central_pool = Abp_hood.Central_pool

(* Serving layer: external task submission over the Hood pool *)
module Shard = Abp_serve.Shard
module Serve = Abp_serve.Shard.Serve
module Injector = Abp_serve.Injector
module Backend = Abp_serve.Backend

(* Multiprogramming harness: the kernel adversary on hardware *)
module Mp = Abp_mp
module Gate = Abp_mp.Gate
module Controller = Abp_mp.Controller
module Antagonist = Abp_mp.Antagonist
