(** Aggregate text report over a telemetry sink: totals, a per-worker
    counter table, and histograms (via {!Abp_stats.Histogram}) of
    steal attempts and successful steals across workers — the shape of
    the per-processor event counts the paper's Hood studies tabulate. *)

val pp : Format.formatter -> Sink.t -> unit

val histogram_of : Sink.t -> Counters.id -> Abp_stats.Histogram.t
(** Histogram of a chosen per-worker counter (one sample per worker). *)
