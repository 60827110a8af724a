type t = {
  counters : Counters.t array;
  rings : Ring.t array;
  enabled : bool;
}

let create ?(ring_capacity = 0) ~workers () =
  if workers < 1 then invalid_arg "Sink.create: workers >= 1 required";
  if ring_capacity < 0 then invalid_arg "Sink.create: ring_capacity >= 0 required";
  {
    counters = Array.init workers (fun _ -> Counters.create ());
    rings = Array.init workers (fun _ -> Ring.create ~capacity:ring_capacity);
    enabled = ring_capacity > 0;
  }

let workers t = Array.length t.counters
let counters t i = t.counters.(i)
let events_enabled t = t.enabled

let emit_at t ~worker ~time ?(arg = -1) kind =
  if t.enabled then Ring.add t.rings.(worker) { Event.kind; worker; time; arg }

let emit t ~worker ?arg kind = emit_at t ~worker ~time:(Clock.to_s (Clock.now ())) ?arg kind

let totals t = Counters.sum t.counters
let per_worker t = t.counters

let events t =
  Array.to_list t.rings
  |> List.concat_map Ring.to_list
  |> List.stable_sort (fun a b -> compare a.Event.time b.Event.time)

let dropped t = Array.fold_left (fun acc r -> acc + Ring.dropped r) 0 t.rings
