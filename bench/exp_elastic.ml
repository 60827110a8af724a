(* E33: elastic resizing — manual shard scaling with parked-continuation
   migration.

   The paper's regime is a kernel that grows and shrinks the processor
   set under a computation; lib/serve/supervisor.ml plays that kernel
   for a sharded serving topology, one manual resize at a time:
   scale_down quiesces a shard (migrating its queued jobs and parked
   fiber continuations to a survivor) and scale_up reactivates a spare.
   One cell:

     resize_storm     forced scale-down-to-one / scale-up-to-full
                      cycles (smoke: 10, full: 100) driven through the
                      supervisor's manual ops while generator domains
                      keep submitting — some bodies park on a simulated
                      backend so live continuations are migrated.
                      Exact conservation (accepted = completed +
                      cancelled + exceptions, suspended = 0) and a
                      balanced resize ledger gate BOTH modes: no
                      awaiter may be stranded by any resize.

   Emits schema-checked JSON (default BENCH_elastic.json, schema
   abp-elastic/2), re-read and validated before exit:

     dune exec bench/exp_elastic.exe                 # full run, gated
     dune exec bench/exp_elastic.exe -- --smoke      # CI smoke
     dune exec bench/exp_elastic.exe -- --json out.json *)

let json_file = ref "BENCH_elastic.json"
let smoke = ref false

let spec =
  [
    ("--json", Arg.Set_string json_file, "FILE  output file (default BENCH_elastic.json)");
    ("--smoke", Arg.Set smoke, "  tiny sizes for CI schema checks");
  ]

let rec fib_seq n = if n < 2 then n else fib_seq (n - 1) + fib_seq (n - 2)

let max_shards = 3
let gen_domains = 2
let storm_cycles () = if !smoke then 10 else 100

(* ------------------------------------------------------------------ *)
(* resize_storm: conservation and stranded-continuation check across  *)
(* forced resize cycles under concurrent load with parked awaits.     *)

type storm_cell = {
  st_cycles : int;
  st_ups : int;
  st_downs : int;
  st_migrated : int;
  st_submitted : int;
  st_stats : Abp.Serve.stats;
  st_conserved : bool;
}

let measure_storm () =
  let cycles = storm_cycles () in
  let topo = Abp.Shard.create ~processes:1 ~inbox_capacity:4096 ~shards:max_shards () in
  let sup = Abp.Supervisor.create topo in
  let backend = Abp.Backend.create ~workers:2 () in
  let stop = Atomic.make false in
  let submitted = Atomic.make 0 in
  let gens =
    Array.init gen_domains (fun g ->
        Domain.spawn (fun () ->
            let i = ref 0 in
            while not (Atomic.get stop) do
              incr i;
              let n = !i in
              if n mod 3 = 0 then
                (* park on the backend: a live continuation the next
                   quiesce must migrate, not strand *)
                ignore
                  (Abp.Shard.submit topo ~key:(n mod 13) (fun () ->
                       Abp.Fiber.await (Abp.Backend.call backend ~delay:0.001 n)))
              else ignore (Abp.Shard.submit topo ~key:((g * 131) + n) (fun () -> fib_seq 15));
              Atomic.incr submitted
            done))
  in
  (* Each cycle collapses the routing table to one shard and rebuilds
     it, so every spare is quiesced and reactivated every cycle. *)
  for _ = 1 to cycles do
    for _ = 2 to max_shards do
      ignore (Abp.Supervisor.scale_down sup)
    done;
    (* Hold the collapsed table long enough for backend fulfils to hit
       the resume redirects of the quiesced shards. *)
    Unix.sleepf 0.001;
    for _ = 2 to max_shards do
      ignore (Abp.Supervisor.scale_up sup)
    done;
    Unix.sleepf 0.001
  done;
  Atomic.set stop true;
  Array.iter Domain.join gens;
  let st = Abp.Shard.drain topo in
  let ups = Abp.Supervisor.scale_up_count sup
  and downs = Abp.Supervisor.scale_down_count sup in
  let resize_log = List.length (Abp.Supervisor.resizes sup) in
  let st_conserved =
    Abp.Shard.conserved topo
    && st.Abp.Serve.accepted = Atomic.get submitted
    && st.Abp.Serve.accepted
       = st.Abp.Serve.completed + st.Abp.Serve.cancelled + st.Abp.Serve.exceptions
    && st.Abp.Serve.suspended = 0
    && downs > 0 && ups = downs
    && resize_log = ups + downs
  in
  Abp.Backend.stop backend;
  Abp.Shard.shutdown topo;
  {
    st_cycles = cycles;
    st_ups = ups;
    st_downs = downs;
    st_migrated = Abp.Supervisor.migrated sup;
    st_submitted = Atomic.get submitted;
    st_stats = st;
    st_conserved;
  }

(* ------------------------------------------------------------------ *)
(* JSON out.                                                          *)

let to_json storm =
  String.concat "\n"
    [
      "{";
      {|  "schema": "abp-elastic/2",|};
      Printf.sprintf {|  "mode": "%s",|} (if !smoke then "smoke" else "full");
      Printf.sprintf {|  "max_shards": %d,|} max_shards;
      Printf.sprintf
        {|  "resize_storm": {"cycles":%d,"scale_ups":%d,"scale_downs":%d,"migrated":%d,"submitted":%d,"accepted":%d,"completed":%d,"cancelled":%d,"exceptions":%d,"suspended":%d,"conserved":%b}|}
        storm.st_cycles storm.st_ups storm.st_downs storm.st_migrated storm.st_submitted
        storm.st_stats.Abp.Serve.accepted storm.st_stats.Abp.Serve.completed
        storm.st_stats.Abp.Serve.cancelled storm.st_stats.Abp.Serve.exceptions
        storm.st_stats.Abp.Serve.suspended storm.st_conserved;
      "}";
      "";
    ]

let validate =
  Schema.check ~label:"BENCH_elastic.json"
    ~required:
      [
        {|"schema": "abp-elastic/2"|};
        {|"mode"|};
        {|"resize_storm"|};
        {|"scale_ups"|};
        {|"scale_downs"|};
        {|"migrated"|};
        {|"conserved"|};
        {|"suspended"|};
      ]

let () =
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument: " ^ a)))
    "exp_elastic [--smoke] [--json FILE]";
  Printf.printf "== E33 elastic resizing (%s mode, max %d shards) ==\n%!"
    (if !smoke then "smoke" else "full")
    max_shards;
  let storm = measure_storm () in
  Printf.printf
    "  resize_storm: %d cycles, %d downs / %d ups, %d migrated, %d submitted — %s\n%!"
    storm.st_cycles storm.st_downs storm.st_ups storm.st_migrated storm.st_submitted
    (if storm.st_conserved then "conserved" else "CONSERVATION FAIL");
  let oc = open_out !json_file in
  output_string oc (to_json storm);
  close_out oc;
  validate !json_file;
  Printf.printf "wrote %s (schema ok)\n%!" !json_file;
  let failures =
    List.concat
      [
        (if storm.st_conserved then [] else [ "resize_storm conservation" ]);
        (if (not !smoke) && storm.st_migrated = 0 then [ "resize_storm migrated nothing" ]
         else []);
      ]
  in
  if failures <> [] then begin
    Printf.eprintf "E33 gates FAILED: %s\n" (String.concat ", " failures);
    exit 1
  end
