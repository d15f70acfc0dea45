(* cluster: the serve tenant mix and clients through Cluster.Router over
   two shards (each node: WAL, scheduler, TCP server), with the
   partition policies of bench-mixed. Standby replicas and the health
   prober are off. Reads go through the router, which bypasses the
   single server's read-your-writes gate. *)

open Common
module Cl = Ivm_cluster

let shards = 2
let read_span = Trace.intern "router.lookup"
let write_span = Trace.intern "router.ingest"

(* Every tenant view is linear in one of its private tables: partition
   that one (by group for minmax, so a group's multiset stays on one
   shard; by tuple otherwise), broadcast the rest, and ring-sum the
   per-shard partials. Window views replicate: per-shard watermarks
   would retract panes at different times. *)
let topology tenants =
  let policies =
    List.concat_map
      (fun (tn : Mx.tenant) ->
        List.map
          (fun (tbl, _) ->
            ( tbl,
              match tn.Mx.kind with
              | Mx.Minmax -> Cl.Topology.Hash_col 0
              | Mx.Economy -> Cl.Topology.Hash_tuple
              | Mx.Join | Mx.Triangle | Mx.Cascade ->
                  if String.equal tbl (Mx.table tn "R") then Cl.Topology.Hash_tuple
                  else Cl.Topology.Broadcast
              | Mx.Window -> Cl.Topology.Broadcast ))
          tn.Mx.tables)
      tenants
  in
  let routes =
    List.map
      (fun (tn : Mx.tenant) ->
        (tn.Mx.name, if tn.Mx.kind = Mx.Window then Cl.Topology.Replicated else Cl.Topology.Scattered))
      tenants
  in
  Cl.Topology.create ~shards ~policies ~routes

let declare tenants reg =
  List.iter
    (fun (tn : Mx.tenant) ->
      List.iter
        (fun (name, cols) -> ignore (St.Registry.declare_table reg name (D.Schema.of_list cols)))
        tn.Mx.tables)
    tenants;
  register_all reg tenants

let ok what = function Ok x -> x | Error m -> failwith (what ^ ": " ^ m)

(* Start the cluster and stream the base state in through the router
   in batches, fenced. *)
let setup ~tenants ~base ~dir ~seed =
  rm_rf dir;
  let router =
    ok "cluster start"
      (Cl.Router.start ~handlers:2 ~standby:false ~probe_interval:0. ~seed ~base_dir:dir
         ~topology:(topology tenants) ~declare:(declare tenants) ())
  in
  let batch = ref [] and n = ref 0 in
  let flush () =
    (match ok "base ingest" (Cl.Router.ingest router (List.rev !batch)) with
    | _, 0 -> ()
    | _, d -> failwith (Printf.sprintf "base ingest: %d updates dead-lettered" d));
    batch := [];
    n := 0
  in
  Trace.span bulk_load_span (fun () ->
      base
        (List.iter (fun u ->
             batch := u :: !batch;
             incr n;
             if !n >= 1024 then flush ()));
      if !n > 0 then flush ();
      ignore (ok "base barrier" (Cl.Router.barrier router)));
  router

let endpoint router _ =
  let prefix = D.Tuple.of_ints [] in
  {
    Clients.read =
      (fun view ->
        match Cl.Router.lookup router ~view ~prefix with
        | Ok entries -> Clients.Done (List.length entries)
        | Error m -> Clients.Failed m);
    write =
      (fun ups ->
        match Cl.Router.ingest router ups with
        | Ok (_, 0) -> Clients.Done 0
        | Ok (_, d) -> Clients.Failed (Printf.sprintf "%d updates dead-lettered" d)
        | Error m -> Clients.Failed m);
    close = ignore;
  }

let nodes router = List.init shards (fun shard -> Cl.Router.primary router ~shard)

type marks = { stream : Layers.stream_mark; ingest : (float * int) list; lookup : (float * int) list; sent : int array }

(* Node counters summed over shards. *)
let marks router =
  let ms = List.map Cl.Node.metrics (nodes router) in
  let op name = hist_buckets (merge_hists (List.map (fun m -> St.Metrics.op m name) ms)) in
  {
    stream = Layers.mark ms;
    ingest = op "ingest";
    lookup = op "lookup";
    sent = Array.init shards (fun shard -> Cl.Router.shard_sent router ~shard);
  }

let run ~(size : Serve.size) ~seed ~seconds ~trace ~spans_out =
  let tenants = Mx.tenants ~views:size.Serve.views ~keys in
  (* Two closed-loop clients: with one, a stall of a single routed op
     idled the whole cluster and throughput across runs spread twice as
     wide. *)
  let nclients = 2 in
  let timed = int_of_float (float_of_int size.Serve.steps_per_s *. (warmup_s +. seconds)) / nclients in
  let gens =
    List.init nclients (fun worker ->
        gen_ops ~tenants ~seed ~worker ~workers:nclients
          ~base:(size.Serve.base_steps / nclients) ~timed ~read_pct:Serve.read_pct)
  in
  let base = base_feed tenants (List.map fst gens) in
  let clients = List.map (fun (_, t) -> Clients.client t) gens in
  let names = Array.of_list (List.map (fun (tn : Mx.tenant) -> tn.Mx.name) tenants) in
  let dir = fresh_dir "cluster" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let router, times =
    setups ~repeats:setup_repeats ~trace
      ~setup:(fun i -> setup ~tenants ~base ~dir:(Filename.concat dir (string_of_int i)) ~seed)
      ~teardown:Cl.Router.stop
  in
  Fun.protect ~finally:(fun () -> Cl.Router.stop router) @@ fun () ->
  let setup_s = median times in
  let live_mb = if trace then 0. else live_mb router in
  let settle () = ignore (ok "barrier" (Cl.Router.barrier router)) in
  let win seconds =
    Clients.window clients ~endpoint:(endpoint router) ~names ~read_span ~write_span ~seconds ~settle
  in
  let layers = Layers.create () in
  ignore (win warmup_s);
  let w, traced =
    if not trace then (win seconds, None)
    else begin
      let w1 = win (seconds /. 2.) in
      let before = marks router in
      Layers.start_tracing ();
      let w2 = win (seconds /. 2.) in
      Atomic.set Trace.enabled false;
      (w1, Some (w2, before))
    end
  in
  let v = verdict () in
  Clients.verdict_of_clients v clients;
  check_views v ~tenants ~seed
    ~sent:(fun f ->
      base f;
      List.iter (fun c -> Clients.iter_sent c f) clients)
    ~served:(fun tn -> Cl.Router.snapshot router ~view:tn.Mx.name);
  List.iteri
    (fun i node -> self_check v ~what:(Printf.sprintf "shard %d" i) (Cl.Node.registry node))
    (nodes router);
  (match traced with
  | None -> ()
  | Some (w2, m0) ->
      let m1 = marks router in
      let spans = Trace.collect () in
      let regs = List.map Cl.Node.registry (nodes router) in
      Layers.set_views layers spans ~t0:w2.Clients.t0 ~t1:w2.Clients.t1;
      Layers.set_tails layers ~reads:w2.Clients.read_lat ~writes:w2.Clients.write_lat;
      Layers.set_stream layers ~before:m0.stream ~after:m1.stream;
      Layers.set_data layers (List.map St.Registry.db regs);
      Layers.set_cascade_output layers regs;
      let ing50 = bucket_pct ~before:m0.ingest ~after:m1.ingest 0.5 *. 1e3 in
      let lk50 = bucket_pct ~before:m0.lookup ~after:m1.lookup 0.5 *. 1e3 in
      Layers.set layers "cluster.node.ingest.service_p50_ms" ing50;
      Layers.set layers "cluster.node.lookup.service_p50_ms" lk50;
      let reads = Samples.sorted w2.Clients.read_lat in
      Layers.set layers "cluster.router_overhead_ms" ((pct reads 0.5 *. 1e3) -. lk50);
      let sent = Array.mapi (fun i s -> float_of_int (s - m0.sent.(i))) m1.sent in
      let total = Array.fold_left ( +. ) 0. sent in
      let mean = total /. float_of_int shards in
      if mean > 0. then Layers.set layers "cluster.shard_skew" (Array.fold_left Float.max 0. sent /. mean);
      if w2.Clients.updates > 0 then
        Layers.set layers "cluster.amplification" (total /. float_of_int w2.Clients.updates);
      let rate (x : Clients.window) = float_of_int x.Clients.ops /. (x.Clients.t1 -. x.Clients.t0) in
      Layers.set layers "trace.overhead_frac" (1. -. (rate w2 /. rate w));
      Option.iter (fun p -> Trace.write_csv p spans) spans_out);
  Printf.printf "cluster: %d views over %d shards, %d clients, %d ops (%d updates) in %.2fs\n"
    size.Serve.views shards nclients w.Clients.ops w.Clients.updates (w.Clients.t1 -. w.Clients.t0);
  let attempted = List.fold_left (fun a c -> a + c.Clients.attempted) 0 clients in
  let failed = List.fold_left (fun a c -> a + c.Clients.failed) 0 clients in
  ( v,
    {
      correct = v.errors = [];
      attempted;
      failed;
      metrics = (if trace then Layers.metrics layers else Clients.e2e ~setup_s ~live_mb w);
    } )
