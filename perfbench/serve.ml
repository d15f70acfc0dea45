(* serve: the single TCP view server over loopback with about a hundred
   tenant views. Closed-loop clients (at most nproc), one connection
   each, run read-your-writes sessions at a 30% read share. No WAL. *)

open Common
module N = Ivm_net

type size = { views : int; base_steps : int; steps_per_s : int }

let full = { views = 96; base_steps = 96_000; steps_per_s = 25_000 }
let tiny = { views = 12; base_steps = 600; steps_per_s = 5_000 }
let read_pct = 30
let read_span = Trace.intern "client.session_read"
let write_span = Trace.intern "client.session_write"

type rt = {
  reg : St.Registry.t;
  metrics : St.Metrics.t;
  queue : St.Scheduler.item St.Queue.t;
  sched : St.Scheduler.t;
  runner : (unit, string) result Domain.t;
  srv : N.Server.t;
}

let setup ~tenants ~base ~clients =
  let metrics = St.Metrics.create () in
  let reg = load_registry ~metrics ~tenants base in
  let queue = St.Queue.create St.Queue.Block in
  let sched = St.Scheduler.create ~queue ~registry:reg ~metrics () in
  let runner = Domain.spawn (fun () -> Layers.run_scheduler ~queue sched) in
  let ingest ups =
    List.fold_left
      (fun (a, d) u ->
        let item = St.Scheduler.item u in
        if Trace.span push_span (fun () -> St.Queue.push queue item) then (a + 1, d) else (a, d + 1))
      (0, 0) ups
  in
  let ingest_rw ups =
    let admitted, dropped = ingest ups in
    (admitted, dropped, St.Queue.pushed queue)
  in
  match
    N.Server.start ~port:0 ~handlers:(clients + 2) ~ingest ~ingest_rw
      ~served:(fun () -> St.Scheduler.applied sched)
      ~barrier:(fun () -> St.Scheduler.barrier sched)
      ~registry:reg ~metrics ()
  with
  | Ok srv -> { reg; metrics; queue; sched; runner; srv }
  | Error e -> failwith ("server start: " ^ N.Wire.error_to_string e)

let stop rt =
  St.Queue.close rt.queue;
  let r = Domain.join rt.runner in
  N.Server.stop rt.srv;
  match r with Ok () -> () | Error m -> failwith ("scheduler: " ^ m)

let wire = N.Wire.error_to_string

let connect rt =
  match N.Client.connect ~timeout:30. ~port:(N.Server.port rt.srv) () with
  | Ok c -> c
  | Error e -> failwith ("connect: " ^ wire e)

let endpoint rt _ =
  let c = connect rt in
  let session = N.Client.Session.create c in
  let prefix = D.Tuple.of_ints [] in
  {
    Clients.read =
      (fun view ->
        match N.Client.Session.read session ~view ~prefix with
        | Ok entries -> Clients.Done (List.length entries)
        | Error (N.Wire.Remote m as e) when String.starts_with ~prefix:"read-your-writes violated" m ->
            Clients.Violation (wire e)
        | Error e -> Clients.Failed (wire e));
    write =
      (fun ups ->
        match N.Client.Session.write session ups with
        | Ok (_, 0) -> Clients.Done 0
        | Ok (_, d) -> Clients.Failed (Printf.sprintf "%d updates dropped" d)
        | Error e -> Clients.Failed (wire e));
    close = (fun () -> N.Client.close c);
  }

let op_marks (m : St.Metrics.t) name = hist_buckets (St.Metrics.op m name)

let run ~size ~seed ~seconds ~trace ~spans_out =
  let tenants = Mx.tenants ~views:size.views ~keys in
  (* One closed-loop client: with two on two cores, clients, handler
     domains and scheduler outnumbered the cores and throughput across
     runs spread several times wider. *)
  let nclients = 1 in
  let timed = int_of_float (float_of_int size.steps_per_s *. (warmup_s +. seconds)) / nclients in
  let gens =
    List.init nclients (fun worker ->
        gen_ops ~tenants ~seed ~worker ~workers:nclients ~base:(size.base_steps / nclients) ~timed
          ~read_pct)
  in
  let base = base_feed tenants (List.map fst gens) in
  let clients = List.map (fun (_, t) -> Clients.client t) gens in
  let names = Array.of_list (List.map (fun (tn : Mx.tenant) -> tn.Mx.name) tenants) in
  let rt, times =
    (* A set-up takes a fifth of a second: more of them steady the
       median at little cost. *)
    setups ~repeats:7 ~trace ~setup:(fun _ -> setup ~tenants ~base ~clients:nclients) ~teardown:stop
  in
  Fun.protect ~finally:(fun () -> stop rt) @@ fun () ->
  let setup_s = median times in
  let live_mb = if trace then 0. else live_mb rt in
  let settle () =
    match St.Scheduler.barrier rt.sched with Ok _ -> () | Error m -> failwith ("barrier: " ^ m)
  in
  let win seconds =
    Clients.window clients ~endpoint:(endpoint rt) ~names ~read_span ~write_span ~seconds ~settle
  in
  let layers = Layers.create () in
  ignore (win warmup_s);
  let w, traced =
    if not trace then (win seconds, None)
    else begin
      let w1 = win (seconds /. 2.) in
      let before = (Layers.mark [ rt.metrics ], op_marks rt.metrics "lookup_at", op_marks rt.metrics "ingest_rw") in
      Layers.start_tracing ();
      let w2 = win (seconds /. 2.) in
      Atomic.set Trace.enabled false;
      (w1, Some (w2, before))
    end
  in
  let v = verdict () in
  Clients.verdict_of_clients v clients;
  let admin = connect rt in
  Fun.protect ~finally:(fun () -> N.Client.close admin) (fun () ->
      check_views v ~tenants ~seed
        ~sent:(fun f ->
          base f;
          List.iter (fun c -> Clients.iter_sent c f) clients)
        ~served:(fun tn -> Result.map_error wire (N.Client.snapshot admin ~view:tn.Mx.name)));
  self_check v ~what:"server registry" rt.reg;
  (match traced with
  | None -> ()
  | Some (w2, (smark, lk0, in0)) ->
      let spans = Trace.collect () in
      Layers.set_views layers spans ~t0:w2.Clients.t0 ~t1:w2.Clients.t1;
      Layers.set_tails layers ~reads:w2.Clients.read_lat ~writes:w2.Clients.write_lat;
      Layers.set_steps layers spans ~t0:w2.Clients.t0 ~t1:w2.Clients.t1;
      Layers.set_stream layers ~before:smark ~after:(Layers.mark [ rt.metrics ]);
      Layers.set_data layers [ St.Registry.db rt.reg ];
      Layers.set_cascade_output layers [ rt.reg ];
      let svc name before q = bucket_pct ~before ~after:(op_marks rt.metrics name) q *. 1e3 in
      let lk50 = svc "lookup_at" lk0 0.5 in
      Layers.set layers "net.lookup_at.service_p50_ms" lk50;
      Layers.set layers "net.lookup_at.service_p99_ms" (svc "lookup_at" lk0 0.99);
      Layers.set layers "net.ingest_rw.service_p50_ms" (svc "ingest_rw" in0 0.5);
      Layers.set layers "net.ingest_rw.service_p99_ms" (svc "ingest_rw" in0 0.99);
      let reads = Samples.sorted w2.Clients.read_lat in
      Layers.set layers "net.read_client_overhead_ms" ((pct reads 0.5 *. 1e3) -. lk50);
      Layers.set layers "net.read_entries_mean"
        (float_of_int w2.Clients.read_entries /. float_of_int (max 1 w2.Clients.read_lat.Samples.n));
      let rate (x : Clients.window) = float_of_int x.Clients.ops /. (x.Clients.t1 -. x.Clients.t0) in
      Layers.set layers "trace.overhead_frac" (1. -. (rate w2 /. rate w));
      Option.iter (fun p -> Trace.write_csv p spans) spans_out);
  Printf.printf "serve: %d views, %d clients, %d ops (%d updates) in %.2fs\n" size.views nclients
    w.Clients.ops w.Clients.updates (w.Clients.t1 -. w.Clients.t0);
  let attempted = List.fold_left (fun a c -> a + c.Clients.attempted) 0 clients in
  let failed = List.fold_left (fun a c -> a + c.Clients.failed) 0 clients in
  ( v,
    {
      correct = v.errors = [];
      attempted;
      failed;
      metrics = (if trace then Layers.metrics layers else Clients.e2e ~setup_s ~live_mb w);
    } )
