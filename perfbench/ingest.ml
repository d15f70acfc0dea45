(* ingest: one producer pushes a pre-generated drifting-Zipf stream
   through Queue (Block) -> Scheduler (WAL, one fsync per epoch) ->
   Registry, over base state bulk-loaded before timing. No network, and
   no reads while the stream runs. The timed window is cut into
   segments; after each one the stream pauses and a short latency pass
   on the idle runtime times single steps from push until applied, and
   consistent reads of every view. Interleaving spreads every figure
   over the whole window, so a slow spell of the machine moves one
   segment, not one metric. *)

open Common

(* [base_steps] saturates every tenant's key domain, so the timed window
   maintains steady-state views; [steps_per_s] bounds the pre-generated
   stream (a run that exhausts it ends early). Every epoch holds
   [epoch] updates: the scheduler's latency-adaptive cap is pinned,
   because where it settled depended on transient stalls and moved
   throughput across runs by up to 2x. *)
type size = { views : int; base_steps : int; steps_per_s : int; epoch : int }

let full = { views = 24; base_steps = 1_200_000; steps_per_s = 60_000; epoch = 1024 }
let tiny = { views = 6; base_steps = 2_000; steps_per_s = 20_000; epoch = 64 }

type rt = {
  reg : St.Registry.t;
  metrics : St.Metrics.t;
  wal : St.Wal.Z.t;
  wal_path : string;
  queue : St.Scheduler.item St.Queue.t;
  sched : St.Scheduler.t;
}

let setup ~size ~tenants ~base ~dir i =
  let metrics = St.Metrics.create () in
  let reg = load_registry ~metrics ~tenants base in
  let wal_path = Filename.concat dir (Printf.sprintf "ingest-%d.wal" i) in
  let wal =
    match St.Wal.Z.open_log wal_path with
    | Ok w -> w
    | Error e -> failwith ("wal: " ^ St.Errors.to_string e)
  in
  let queue = St.Queue.create St.Queue.Block in
  let sched =
    St.Scheduler.create ~wal ~min_batch:size.epoch ~max_batch:size.epoch ~initial_batch:size.epoch
      ~queue ~registry:reg ~metrics ()
  in
  { reg; metrics; wal; wal_path; queue; sched }

let push rt u =
  let item = St.Scheduler.item u in
  if not (Trace.span push_span (fun () -> St.Queue.push rt.queue item)) then
    failwith "ingest: Block queue refused an update"

let barrier rt =
  match St.Scheduler.barrier rt.sched with Ok _ -> () | Error m -> failwith ("barrier: " ^ m)

type window = {
  steps : int;  (** producer steps pushed *)
  updates : int;
  t0 : float;
  t1 : float;  (** after every pushed update was applied *)
}

(* The producer pushes whole steps from [from] until [seconds] have
   passed or the stream ends; each update is stamped at its push. *)
let window rt ops ~from ~seconds =
  let t0 = Trace.now () in
  let deadline = t0 +. seconds in
  let i = ref from and updates = ref 0 in
  while !i < Ops.length ops && Trace.now () < deadline do
    let ups = Ops.updates ops !i in
    List.iter (push rt) ups;
    updates := !updates + List.length ups;
    incr i
  done;
  barrier rt;
  { steps = !i - from; updates = !updates; t0; t1 = Trace.now () }

let rate (w : window) n = float_of_int n /. (w.t1 -. w.t0)

(* A latency pass on the idle runtime: for [seconds], one step at a time
   is pushed and fenced until applied (WAL fsync included); then, for
   as long again, every tenant view is enumerated under one registry
   read lock, one such consistent read at a time. *)
type pass = { writes : Samples.t; reads : Samples.t; pass_steps : int }

let latency_pass rt ops ~from ~names ~seconds =
  (* a write or read takes at least tens of microseconds *)
  let cap = 10_000 + int_of_float (seconds *. 1e5) in
  let writes = Samples.create cap and reads = Samples.create cap in
  let deadline = Trace.now () +. seconds in
  let i = ref from in
  while !i < Ops.length ops && Trace.now () < deadline && writes.Samples.n < cap do
    let ups = Ops.updates ops !i in
    if ups <> [] then begin
      let t0 = Trace.now () in
      List.iter (push rt) ups;
      barrier rt;
      let t1 = Trace.now () in
      Samples.add writes ~at:t1 (t1 -. t0)
    end;
    incr i
  done;
  let deadline = Trace.now () +. seconds in
  while Trace.now () < deadline && reads.Samples.n < cap do
    let t0 = Trace.now () in
    let n =
      St.Registry.read rt.reg (fun () ->
          List.fold_left
            (fun a name -> a + List.length ((St.Registry.find rt.reg name).M.enumerate ()))
            0 names)
    in
    let t1 = Trace.now () in
    ignore (Sys.opaque_identity n);
    Samples.add reads ~at:t1 (t1 -. t0)
  done;
  { writes; reads; pass_steps = !i - from }

let run ~size ~seed ~seconds ~trace ~spans_out =
  let tenants = Mx.tenants ~views:size.views ~keys in
  let timed = int_of_float (float_of_int size.steps_per_s *. (warmup_s +. seconds)) in
  let base_ops, timed_ops =
    gen_ops ~tenants ~seed ~worker:0 ~workers:1 ~base:size.base_steps ~timed ~read_pct:0
  in
  let dir = fresh_dir "ingest" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  (* Set-up: bulk load and view builds (the paper's preprocessing). *)
  let rt, times =
    setups ~repeats:setup_repeats ~trace
      ~setup:(fun i -> setup ~size ~tenants ~base:(base_feed tenants [ base_ops ]) ~dir i)
      ~teardown:(fun r -> St.Wal.Z.close r.wal)
  in
  let setup_s = median times in
  let live_mb = if trace then 0. else live_mb rt in
  let names = List.map (fun (tn : Mx.tenant) -> tn.Mx.name) tenants in
  let runner = Domain.spawn (fun () -> Layers.run_scheduler ~queue:rt.queue rt.sched) in
  (* [next] is the first step of the stream not pushed yet. *)
  let next = ref 0 in
  let segment seconds =
    let w = window rt timed_ops ~from:!next ~seconds in
    next := !next + w.steps;
    w
  in
  let pass seconds =
    let p = latency_pass rt timed_ops ~from:!next ~names ~seconds in
    next := !next + p.pass_steps;
    p
  in
  let layers = Layers.create () in
  ignore (segment warmup_s);
  (* Per segment of [seconds / slices]: 80% streaming, then 10% each of
     writes and reads. Each throughput is the mean of the best quarter
     of segments ({!best_quarter}), each latency percentile is over the
     samples of every pass. *)
  let seg_s = seconds /. float_of_int slices in
  let result =
    if not trace then
      `Segments (List.init slices (fun _ -> (segment (0.8 *. seg_s), pass (0.1 *. seg_s))))
    else begin
      (* Half the time untraced, half traced: the throughput ratio is
         the tracing overhead. *)
      let w1 = segment (seconds /. 2.) in
      let before = Layers.mark [ rt.metrics ] in
      Layers.start_tracing ();
      let w2 = segment (seconds /. 2.) in
      Atomic.set Trace.enabled false;
      let after = Layers.mark [ rt.metrics ] in
      `Traced (w1, w2, before, after, pass (0.1 *. seg_s))
    end
  in
  let last_step = !next in
  St.Queue.close rt.queue;
  (match Domain.join runner with Ok () -> () | Error m -> failwith ("scheduler: " ^ m));
  St.Wal.Z.close rt.wal;
  let v = verdict () in
  (match St.Wal.Z.record_count rt.wal_path with
  | Ok n when n = rt.metrics.St.Metrics.ingested ->
      note v (Printf.sprintf "wal: %d records = %d ingested" n n)
  | Ok n -> fail v (Printf.sprintf "wal: %d records but %d ingested" n rt.metrics.St.Metrics.ingested)
  | Error e -> fail v ("wal: " ^ St.Errors.to_string e));
  let db = St.Registry.db rt.reg in
  check_views v ~tenants ~seed
    ~sent:(fun f ->
      base_feed tenants [ base_ops ] f;
      f (Ops.all_updates ~upto:last_step timed_ops))
    ~served:(fun tn -> Ok ((St.Registry.find rt.reg tn.Mx.name).M.enumerate ()));
  self_check v ~what:"ingest registry" rt.reg;
  let metrics, reads_done =
    match result with
    | `Segments parts ->
        let over f = best_quarter (List.map f parts) in
        let ws = List.map fst parts in
        Printf.printf "ingest: %d steps, %d updates in %d segments of %.2fs\n"
          (List.fold_left (fun a w -> a + w.steps) 0 ws)
          (List.fold_left (fun a w -> a + w.updates) 0 ws)
          slices (0.8 *. seg_s);
        ( Common.e2e ~setup_s
            ~ingest_ups:(over (fun (w, _) -> rate w w.updates))
            ~ops_per_s:(over (fun (w, _) -> rate w w.steps))
            ~read_p50_ms:(window_pct (List.map (fun (_, p) -> p.reads) parts) 0.5)
            ~write_p50_ms:(window_pct (List.map (fun (_, p) -> p.writes) parts) 0.5)
            ~live_mb,
          List.fold_left (fun a (_, p) -> a + p.reads.Samples.n) 0 parts )
    | `Traced (w1, w2, before, after, p) ->
        let spans = Trace.collect () in
        Layers.set_views layers spans ~t0:w2.t0 ~t1:w2.t1;
        Layers.set_steps layers spans ~t0:w2.t0 ~t1:w2.t1;
        Layers.set layers "tail.read_p99_ms" (window_pct [ p.reads ] 0.99);
        Layers.set layers "tail.write_p99_ms" (window_pct [ p.writes ] 0.99);
        Layers.set_stream layers ~before ~after;
        Layers.set_data layers [ db ];
        Layers.set_cascade_output layers [ rt.reg ];
        Layers.set layers "trace.overhead_frac" (1. -. (rate w2 w2.updates /. rate w1 w1.updates));
        Option.iter (fun p -> Trace.write_csv p spans) spans_out;
        (Layers.metrics layers, p.reads.Samples.n)
  in
  ( v,
    {
      correct = v.errors = [];
      attempted = last_step + reads_done;
      failed = 0;
      metrics;
    } )
