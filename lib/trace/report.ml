let histogram_of sink id =
  let samples =
    Array.map (fun c -> float_of_int (Counters.get c id)) (Sink.per_worker sink)
  in
  let hi = Array.fold_left max 0.0 samples +. 1.0 in
  let bins = min 10 (max 1 (Array.length samples)) in
  let h = Abp_stats.Histogram.create ~lo:0.0 ~hi ~bins in
  Abp_stats.Histogram.add_many h samples;
  h

let pp ppf sink =
  let totals = Sink.totals sink in
  let count = Counters.get totals in
  Fmt.pf ppf "=== scheduler telemetry (%d workers) ===@." (Sink.workers sink);
  Fmt.pf ppf "totals: %a@." Counters.pp totals;
  Fmt.pf ppf "steal-attempt breakdown: %d = %d success + %d empty + %d cas-lost%s@."
    (count Counters.steal_attempts) (count Counters.successful_steals)
    (count Counters.steal_empties) (count Counters.cas_failures_pop_top)
    (if Counters.complete totals then "" else " (+ unclassified)");
  Fmt.pf ppf "@.%-8s" "worker";
  List.iter (fun (name, _) -> Fmt.pf ppf "%s  " name) (Counters.fields totals);
  Fmt.pf ppf "@.";
  Array.iteri
    (fun i c ->
      Fmt.pf ppf "%-8d" i;
      List.iter2
        (fun (name, _) (_, v) -> Fmt.pf ppf "%*d  " (String.length name) v)
        (Counters.fields totals) (Counters.fields c);
      Fmt.pf ppf "@.")
    (Sink.per_worker sink);
  (* Pairwise steal (locality) matrix: row = thief, column = victim,
     entry = successful intra-pool steals.  Only printed when some
     worker recorded per-victim counts (the vectors grow on demand). *)
  let per_worker = Sink.per_worker sink in
  let n = Array.length per_worker in
  if Array.exists (fun c -> Array.exists (fun v -> v > 0) (Counters.victim_counts c)) per_worker
  then begin
    Fmt.pf ppf "@.steal matrix (thief row x victim column):@.%-8s" "";
    for v = 0 to n - 1 do
      Fmt.pf ppf "%6d" v
    done;
    Fmt.pf ppf "@.";
    Array.iteri
      (fun i c ->
        let row = Counters.victim_counts c in
        Fmt.pf ppf "%-8d" i;
        for v = 0 to n - 1 do
          Fmt.pf ppf "%6d" (if v < Array.length row then row.(v) else 0)
        done;
        Fmt.pf ppf "@.")
      per_worker
  end;
  Fmt.pf ppf "@.steal attempts per worker:@.%a" Abp_stats.Histogram.pp
    (histogram_of sink Counters.steal_attempts);
  Fmt.pf ppf "@.successful steals per worker:@.%a" Abp_stats.Histogram.pp
    (histogram_of sink Counters.successful_steals);
  if Sink.events_enabled sink then
    Fmt.pf ppf "@.events retained: %d  dropped: %d@."
      (List.length (Sink.events sink))
      (Sink.dropped sink)
