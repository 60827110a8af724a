(* Serving quickstart: the Hood pool as a persistent service.

   Instead of one closed fork-join job under Pool.run, a Shard keeps the
   workers alive and lets any domain submit tasks from outside through a
   bounded injector inbox — with backpressure, per-task deadlines,
   cancellation, and a graceful drain.  One shard is one micropool; more
   shards add routing and cross-shard stealing behind the same calls.

   Run with: dune exec examples/serve_quickstart.exe *)

let () =
  let s = Abp.Shard.create ~processes:4 ~inbox_capacity:64 ~shards:1 () in

  (* 1. Submit from this (non-worker) domain; the task itself fans out
     across the pool with ordinary work stealing. *)
  let big = Abp.Shard.submit s (fun () -> Abp.Par.fib 25) in

  (* 2. A burst of small requests from two client domains. *)
  let clients =
    Array.init 2 (fun c ->
        Domain.spawn (fun () ->
            List.init 20 (fun i ->
                Abp.Shard.submit s (fun () -> (100 * c) + i))
            |> List.map (fun t ->
                   match Abp.Serve.await t with
                   | Abp.Serve.Returned v -> v
                   | _ -> -1)
            |> List.fold_left ( + ) 0))
  in
  let burst_sum = Array.fold_left (fun acc d -> acc + Domain.join d) 0 clients in

  (* 3. Backpressure and admission control: try_submit never blocks,
     and a queued task can be cancelled or expire. *)
  (match Abp.Shard.try_submit s (fun () -> 0) with
  | Ok t -> ignore (Abp.Serve.await t)
  | Error Abp.Serve.Inbox_full -> print_endline "inbox full: caller must back off"
  | Error Abp.Serve.Draining -> print_endline "service is draining");
  let doomed = Abp.Shard.submit s ~deadline:30.0 (fun () -> 42) in
  ignore (Abp.Serve.cancel doomed : bool);

  (* 4. A request may wait on another request: inside a request,
     Serve.await suspends the waiting fiber instead of blocking its
     worker, so this works even with one worker per shard. *)
  let nested =
    Abp.Shard.submit s (fun () ->
        match Abp.Serve.await (Abp.Shard.submit s (fun () -> 20)) with
        | Abp.Serve.Returned v -> v + 1
        | _ -> -1)
  in

  (match (Abp.Serve.await big, Abp.Serve.await nested) with
  | Abp.Serve.Returned v, Abp.Serve.Returned w ->
      Format.printf "fib 25 = %d (served); nested request = %d@." v w
  | _ -> assert false);
  Format.printf "burst sum = %d over %d requests@." burst_sum 40;

  (* 5. Graceful stop: drain runs everything accepted and reports the
     conservation invariant, then shutdown joins the workers. *)
  let st = Abp.Shard.drain s in
  Format.printf "drained: accepted %d = completed %d + cancelled %d + exceptions %d@."
    st.Abp.Serve.accepted st.Abp.Serve.completed st.Abp.Serve.cancelled
    st.Abp.Serve.exceptions;
  assert (Abp.Shard.conserved s);
  Abp.Shard.shutdown s
