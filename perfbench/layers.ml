(* The per-layer metrics of a traced run. Every workload reports every
   name; a layer a workload does not pass through, or cannot be seen
   from outside the library on it, reads 0. *)

open Common

let kind_metrics =
  List.concat_map
    (fun k ->
      let l = layer_of k in
      [ (l ^ ".apply_s", "s"); (l ^ ".updates", "count"); (l ^ ".build_s", "s") ])
    (Array.to_list kinds)

let names =
  [ ("data.base_tuples", "count"); ("data.probe_ns", "ns") ]
  @ kind_metrics
  @ [
      ("dataflow.cascade.output", "count");
      ("stream.epochs", "count");
      ("stream.batch_mean", "count");
      ("stream.coalesce_ratio", "ratio");
      ("stream.step_p50_ms", "ms");
      ("stream.step_p99_ms", "ms");
      ("stream.step_self_s", "s");
      ("stream.lag_p50_ms", "ms");
      ("stream.lag_p99_ms", "ms");
      ("stream.push_wait_s", "s");
      ("net.lookup_at.service_p50_ms", "ms");
      ("net.lookup_at.service_p99_ms", "ms");
      ("net.ingest_rw.service_p50_ms", "ms");
      ("net.ingest_rw.service_p99_ms", "ms");
      ("net.read_client_overhead_ms", "ms");
      ("net.read_entries_mean", "count");
      ("cluster.node.ingest.service_p50_ms", "ms");
      ("cluster.node.lookup.service_p50_ms", "ms");
      ("cluster.router_overhead_ms", "ms");
      ("cluster.shard_skew", "ratio");
      ("cluster.amplification", "ratio");
      ("tail.read_p99_ms", "ms");
      ("tail.write_p99_ms", "ms");
      ("trace.step_coverage", "ratio");
      ("trace.overhead_frac", "ratio");
    ]

type t = (string, float) Hashtbl.t

let start_tracing () = Atomic.set Trace.enabled true

let create () : t = Hashtbl.create 64

let set (t : t) name v =
  if not (List.mem_assoc name names) then invalid_arg ("Layers.set: " ^ name);
  Hashtbl.replace t name v

let metrics (t : t) =
  List.map (fun (n, u) -> (n, u, Option.value (Hashtbl.find_opt t n) ~default:0.)) names

(* Drive the scheduler as Scheduler.run does, with every step a span. *)
let run_scheduler ~queue sched =
  let rec loop () =
    let idle = St.Queue.length queue = 0 in
    match
      Trace.span (if idle then step_idle_span else step_span) (fun () -> St.Scheduler.step sched)
    with
    | Ok true -> loop ()
    | Ok false -> Ok ()
    | Error e -> Error (St.Errors.to_string e)
  in
  try loop ()
  with e ->
    St.Scheduler.abort sched;
    Error (Printexc.to_string e)

(* Engine and dataflow times: applies inside the traced window
   [t0, t1], builds wherever they ran (set-up). *)
let set_views t spans ~t0 ~t1 =
  Array.iteri
    (fun i k ->
      let l = layer_of k in
      let sum id keep =
        List.fold_left
          (fun a s -> if s.Trace.sname = id && keep s then a +. (s.Trace.s1 -. s.Trace.s0) else a)
          0. spans
      in
      set t (l ^ ".apply_s") (sum apply_span.(i) (fun s -> s.Trace.s0 >= t0 && s.Trace.s1 <= t1));
      set t (l ^ ".build_s") (sum build_span.(i) (fun _ -> true)))
    kinds

(* Scheduler steps inside [t0, t1]. A step that began on an empty queue
   blocked in the pop until the first push that ended after it began;
   its busy time starts there. Its self time is the busy time minus the
   view applies nested in it: WAL, coalescing, routing and base apply. *)
let set_steps t spans ~t0 ~t1 =
  let in_window s = s.Trace.s0 >= t0 && s.Trace.s1 <= t1 in
  let pushes =
    List.filter_map (fun s -> if s.Trace.sname = push_span then Some s else None) spans
    |> List.sort (fun a b -> compare a.Trace.s1 b.Trace.s1)
    |> Array.of_list
  in
  let wake_after x =
    (* first push ending at or after x: binary search on end times *)
    let lo = ref 0 and hi = ref (Array.length pushes) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if pushes.(mid).Trace.s1 < x then lo := mid + 1 else hi := mid
    done;
    if !lo < Array.length pushes then Float.max x pushes.(!lo).Trace.s0 else infinity
  in
  let self = Trace.self_times spans in
  let busy = ref [] and self_sum = ref 0. and busy_sum = ref 0. in
  List.iter
    (fun s ->
      if in_window s && (s.Trace.sname = step_span || s.Trace.sname = step_idle_span) then begin
        let start =
          if s.Trace.sname = step_idle_span then Float.min s.Trace.s1 (wake_after s.Trace.s0)
          else s.Trace.s0
        in
        let b = s.Trace.s1 -. start in
        let nested = s.Trace.s1 -. s.Trace.s0 -. self s in
        busy := b :: !busy;
        busy_sum := !busy_sum +. b;
        self_sum := !self_sum +. Float.max 0. (b -. nested)
      end)
    spans;
  let sorted = Array.of_list !busy in
  Array.sort compare sorted;
  set t "stream.step_p50_ms" (pct sorted 0.5 *. 1e3);
  set t "stream.step_p99_ms" (pct sorted 0.99 *. 1e3);
  set t "stream.step_self_s" !self_sum;
  set t "trace.step_coverage" (!busy_sum /. (t1 -. t0));
  let push_wait =
    Array.fold_left
      (fun a s -> if in_window s then a +. (s.Trace.s1 -. s.Trace.s0) else a)
      0. pushes
  in
  set t "stream.push_wait_s" push_wait

(* Stream counters over an interval, from snapshots of one or more
   runtimes' Metrics (the shards of a cluster are summed), with the
   updates the registries applied per tenant kind. *)
type stream_mark = {
  epochs : int;
  ingested : int;
  coalesced : int;
  lag : (float * int) list;
  kind_updates : int array;
}

let mark (ms : St.Metrics.t list) =
  let sum f = List.fold_left (fun a m -> a + f m) 0 ms in
  let kind_updates = Array.make (Array.length kinds) 0 in
  List.iter
    (fun (m : St.Metrics.t) ->
      List.iter
        (fun name ->
          (* tenant names end in their kind letter *)
          match Mx.kind_of_char name.[String.length name - 1] with
          | Some k ->
              let i = kind_index k in
              kind_updates.(i) <- kind_updates.(i) + (St.Metrics.view m name).St.Metrics.updates
          | None -> ())
        (St.Metrics.view_names m))
    ms;
  {
    epochs = sum (fun m -> m.St.Metrics.epochs);
    ingested = sum (fun m -> m.St.Metrics.ingested);
    coalesced = sum (fun m -> m.St.Metrics.coalesced);
    lag = hist_buckets (merge_hists (List.map (fun m -> m.St.Metrics.latency) ms));
    kind_updates;
  }

let set_stream t ~before ~after =
  let epochs = after.epochs - before.epochs in
  let ingested = after.ingested - before.ingested in
  let coalesced = after.coalesced - before.coalesced in
  set t "stream.epochs" (float_of_int epochs);
  if epochs > 0 then set t "stream.batch_mean" (float_of_int ingested /. float_of_int epochs);
  if ingested > 0 then set t "stream.coalesce_ratio" (float_of_int coalesced /. float_of_int ingested);
  set t "stream.lag_p50_ms" (bucket_pct ~before:before.lag ~after:after.lag 0.5 *. 1e3);
  set t "stream.lag_p99_ms" (bucket_pct ~before:before.lag ~after:after.lag 0.99 *. 1e3);
  Array.iteri
    (fun i k ->
      set t (layer_of k ^ ".updates")
        (float_of_int (after.kind_updates.(i) - before.kind_updates.(i))))
    kinds

let set_data t dbs =
  set t "data.base_tuples" (float_of_int (List.fold_left (fun a db -> a + Db.size db) 0 dbs));
  set t "data.probe_ns" (probe_ns dbs)

let set_cascade_output t regs =
  let out =
    List.fold_left
      (fun a reg ->
        List.fold_left
          (fun a (name, (m : M.t)) ->
            (* tenant names end in their kind letter *)
            if name.[String.length name - 1] = Mx.kind_char Mx.Cascade then a + m.M.output_count ()
            else a)
          a (St.Registry.views reg))
      0 regs
  in
  set t "dataflow.cascade.output" (float_of_int out)

(* Read and write p99 of the traced window. *)
let set_tails t ~reads ~writes =
  set t "tail.read_p99_ms" (window_pct [ reads ] 0.99);
  set t "tail.write_p99_ms" (window_pct [ writes ] 0.99)
