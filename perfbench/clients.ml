(* Closed-loop clients shared by serve and cluster: each client domain
   runs its own pre-generated op sequence against one endpoint, one op
   at a time, until the deadline. *)

open Common

type outcome = Done of int  (** entries read *) | Failed of string | Violation of string

type endpoint = {
  read : string -> outcome;
  write : int U.t list -> outcome;
  close : unit -> unit;
}

type client = {
  ops : Ops.t;
  ok : Bytes.t;  (** per op: '1' once it succeeded *)
  reads : Samples.t;
  writes : Samples.t;
  mutable next : int;  (** first op not yet run *)
  mutable attempted : int;
  mutable failed : int;
  mutable written : int;  (** updates in successful writes *)
  mutable entries : int;  (** entries returned by successful reads *)
  mutable errors : string list;  (** first few failures *)
  mutable violations : string list;
}

let client ops =
  {
    ops;
    ok = Bytes.make (Ops.length ops) '0';
    reads = Samples.create (Ops.length ops);
    writes = Samples.create (Ops.length ops);
    next = 0;
    attempted = 0;
    failed = 0;
    written = 0;
    entries = 0;
    errors = [];
    violations = [];
  }

let keep l x = if List.length l < 5 then x :: l else l

let run_client c (ep : endpoint) ~names ~read_span ~write_span ~deadline =
  while c.next < Ops.length c.ops && Trace.now () < deadline do
    let i = c.next in
    let read = Ops.is_read c.ops i in
    let ups = if read then [] else Ops.updates c.ops i in
    let t0 = Trace.now () in
    let r, samples, n =
      Trace.request (fun () ->
          if read then (Trace.span read_span (fun () -> ep.read names.(Ops.tenant c.ops i)), c.reads, 0)
          else (Trace.span write_span (fun () -> ep.write ups), c.writes, List.length ups))
    in
    let t1 = Trace.now () in
    c.attempted <- c.attempted + 1;
    (match r with
    | Done entries ->
        Bytes.set c.ok i '1';
        Samples.add samples ~at:t1 ~w:(float_of_int n) (t1 -. t0);
        c.written <- c.written + n;
        c.entries <- c.entries + entries
    | Failed m ->
        c.failed <- c.failed + 1;
        c.errors <- keep c.errors m
    | Violation m ->
        c.failed <- c.failed + 1;
        c.violations <- keep c.violations m);
    c.next <- i + 1
  done

type window = {
  t0 : float;
  t1 : float;  (** once every admitted update was applied *)
  ops : int;
  updates : int;
  read_lat : Samples.t;
  write_lat : Samples.t;
  read_entries : int;
}

(* Run every client from where it stopped for [seconds]; [settle] is
   called once they stopped and must return once every admitted update
   is applied. *)
let window clients ~endpoint ~names ~read_span ~write_span ~seconds ~settle =
  let before = List.map (fun c -> (c.attempted, c.written, c.entries, c.reads.Samples.n, c.writes.Samples.n)) clients in
  let t0 = Trace.now () in
  let deadline = t0 +. seconds in
  let domains =
    List.mapi
      (fun i c ->
        Domain.spawn (fun () ->
            let ep = endpoint i in
            Fun.protect ~finally:ep.close (fun () ->
                run_client c ep ~names ~read_span ~write_span ~deadline)))
      clients
  in
  List.iter Domain.join domains;
  settle ();
  let t1 = Trace.now () in
  let tail (s : Samples.t) from into =
    for i = from to s.Samples.n - 1 do
      Samples.add into ~at:s.Samples.at.{i} ~w:s.Samples.w.{i} s.Samples.v.{i}
    done
  in
  let parts = List.map2 (fun c b -> (c, b)) clients before in
  let added f = List.fold_left (fun a (c, b) -> a + f c b) 0 parts in
  let read_lat = Samples.create (added (fun c (_, _, _, r, _) -> c.reads.Samples.n - r))
  and write_lat = Samples.create (added (fun c (_, _, _, _, w) -> c.writes.Samples.n - w)) in
  List.iter
    (fun ((c : client), (_, _, _, r, w)) ->
      tail c.reads r read_lat;
      tail c.writes w write_lat)
    parts;
  {
    t0;
    t1;
    ops = added (fun c (at, _, _, _, _) -> c.attempted - at);
    updates = added (fun c (_, w, _, _, _) -> c.written - w);
    read_entries = added (fun c (_, _, e, _, _) -> c.entries - e);
    read_lat;
    write_lat;
  }

(* Every update a client got acknowledged, in its send order. *)
let iter_sent (c : client) f =
  for i = 0 to Ops.length c.ops - 1 do
    if (not (Ops.is_read c.ops i)) && Bytes.get c.ok i = '1' then f (Ops.updates c.ops i)
  done

let verdict_of_clients v clients =
  List.iter
    (fun c ->
      List.iter (fun m -> fail v ("read-your-writes: " ^ m)) c.violations;
      List.iter (fun m -> note v ("op failed: " ^ m)) c.errors)
    clients

(* The end-to-end figures of a client window: an op is a read or a
   write, the updates are those of the writes. *)
let e2e ~setup_s ~live_mb (w : window) =
  let t0 = w.t0 and t1 = w.t1 in
  Common.e2e ~setup_s
    ~ingest_ups:(slice_rate ~t0 ~t1 ~weighted:true [ w.write_lat ])
    ~ops_per_s:(slice_rate ~t0 ~t1 [ w.read_lat; w.write_lat ])
    ~read_p50_ms:(window_pct [ w.read_lat ] 0.5)
    ~write_p50_ms:(window_pct [ w.write_lat ] 0.5)
    ~live_mb

