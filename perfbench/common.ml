(* What the three workloads share: the tenant mix, the seeded op
   streams, instrumented view factories, latency samples and the
   correctness checks. *)

module D = Ivm_data
module U = D.Update
module Db = D.Database.Z
module Mx = Ivm_workload.Mixed
module M = Ivm_engine.Maintainable
module St = Ivm_stream
module Ck = Ivm_check

let keys = 64
let accounts = 64
let drift_period = 2_000

(* Set-up is repeated this many times per untraced run, unless the
   workload asks for more; setup_s is the median ({!setups}). *)
let setup_repeats = 3

(* Every workload runs this long, untimed, before the timed window, so
   the scheduler's adaptive batch cap and the server caches have
   settled when timing starts. *)
let warmup_s = 3.

(* --- layers of the tenant kinds --------------------------------------- *)

let kinds = [| Mx.Join; Mx.Triangle; Mx.Cascade; Mx.Minmax; Mx.Window; Mx.Economy |]

let kind_index k =
  let rec go i = if kinds.(i) = k then i else go (i + 1) in
  go 0

(* View trees and triangle kernels are the engine layer; the other
   kinds are operator graphs. *)
let layer_of = function
  | Mx.Join -> "engine.join"
  | Mx.Triangle -> "engine.triangle"
  | Mx.Cascade -> "dataflow.cascade"
  | Mx.Minmax -> "dataflow.minmax"
  | Mx.Window -> "dataflow.window"
  | Mx.Economy -> "dataflow.economy"

let apply_span = Array.map (fun k -> Trace.intern (layer_of k ^ ".apply")) kinds
let build_span = Array.map (fun k -> Trace.intern (layer_of k ^ ".build")) kinds
let bulk_load_span = Trace.intern "data.bulk_load"
let push_span = Trace.intern "stream.queue_push"

(* A step that found work queued, and one that started on an empty
   queue and so first blocked in the queue pop. *)
let step_span = Trace.intern "stream.step"
let step_idle_span = Trace.intern "stream.step_idle"

(* The tenant's factory, with its build and every apply_batch call
   recorded as spans while tracing. *)
let factory (tn : Mx.tenant) =
  let k = kind_index tn.Mx.kind in
  let build = Mx.factory tn in
  fun db ->
    let m = Trace.span build_span.(k) (fun () -> build db) in
    { m with M.apply_batch = (fun batch -> Trace.span apply_span.(k) (fun () -> m.M.apply_batch batch)) }

let declare_tables db tenants =
  List.iter
    (fun (tn : Mx.tenant) ->
      List.iter (fun (name, cols) -> ignore (Db.declare db name (D.Schema.of_list cols))) tn.Mx.tables)
    tenants

let register_all reg tenants =
  List.iter (fun (tn : Mx.tenant) -> St.Registry.register reg ~name:tn.Mx.name (factory tn)) tenants

let init_updates tenants = List.concat_map (fun tn -> Mx.init_updates tn ~accounts) tenants

(* A fresh registry over the base rows [feed] hands out, bulk-loaded
   into a new database, with every tenant view built from it. *)
let load_registry ~metrics ~tenants feed =
  let db = Db.create () in
  declare_tables db tenants;
  Trace.span bulk_load_span (fun () -> feed (Db.apply_batch db));
  let reg = St.Registry.create ~metrics db in
  register_all reg tenants;
  reg

(* Set-up, timed: [setup i] runs [repeats] times (once, with
   tracing on so builds and the bulk load are spans, when tracing), and
   the first runtime is kept for the timed window: like a deployment's
   only set-up, it is built on a fresh heap, not in the scattered
   memory that torn-down runtimes leave. The others are torn down with
   [teardown]. Returns the kept runtime and the median set-up time. *)
let setups ~repeats ~trace ~setup ~teardown =
  let timed i =
    let t0 = Trace.now () in
    let r = setup i in
    (r, Trace.now () -. t0)
  in
  if trace then Atomic.set Trace.enabled true;
  let kept, first = timed 0 in
  Atomic.set Trace.enabled false;
  let others =
    List.init
      (if trace then 0 else repeats - 1)
      (fun i ->
        let r, t = timed (i + 1) in
        teardown r;
        t)
  in
  Gc.full_major ();
  (kept, first :: others)

(* --- seeded op streams ------------------------------------------------ *)

(* Ops are generated before timing into an off-heap array, so the
   inputs neither count in live_mb nor add to the collector's marking
   work while the system runs; an op is decoded when it is issued.
   Slot layout: tenant; update count (-1 for a read); then up to two
   updates, each packed in one int as relation id (10 bits), first
   value (22 bits), second value (18 bits) and payload (12 bits,
   offset by 2048). *)
module Ops = struct
  open Bigarray

  type t = {
    data : (int, int_elt, c_layout) Array1.t;
    len : int;
    rels : string array;
    arity : int array;
  }

  let slot = 4

  let create ~rels ~arity len =
    if Array.length rels > 1 lsl 10 then invalid_arg "Ops.create: too many relations";
    { data = Array1.create int c_layout (max 1 (len * slot)); len; rels; arity }

  let length t = t.len
  let tenant t i = t.data.{i * slot}
  let is_read t i = t.data.{(i * slot) + 1} < 0
  let count t i = max 0 t.data.{(i * slot) + 1}

  let set_read t i ~tenant =
    t.data.{i * slot} <- tenant;
    t.data.{(i * slot) + 1} <- -1

  let pack ~rel ~v0 ~v1 ~payload =
    let fits x bits = x >= 0 && x < 1 lsl bits in
    if not (fits v0 22 && fits v1 18 && fits (payload + 2048) 12) then
      invalid_arg "Ops.pack: value out of range";
    rel lor (v0 lsl 10) lor (v1 lsl 32) lor ((payload + 2048) lsl 50)

  let set_write t i ~tenant ~rel_id ups =
    let n = List.length ups in
    if n > 2 then invalid_arg "Ops.set_write: more than two updates";
    t.data.{i * slot} <- tenant;
    t.data.{(i * slot) + 1} <- n;
    List.iteri
      (fun j (u : int U.t) ->
        let v k = if k < D.Tuple.arity u.U.tuple then D.Value.to_int (D.Tuple.get u.U.tuple k) else 0 in
        t.data.{(i * slot) + 2 + j} <- pack ~rel:(rel_id u.U.rel) ~v0:(v 0) ~v1:(v 1) ~payload:u.U.payload)
      ups

  let update t i j =
    let x = t.data.{(i * slot) + 2 + j} in
    let r = x land 0x3ff and v0 = (x lsr 10) land 0x3fffff and v1 = (x lsr 32) land 0x3ffff in
    let vs = if t.arity.(r) = 1 then [ v0 ] else [ v0; v1 ] in
    U.make ~rel:t.rels.(r) ~tuple:(D.Tuple.of_ints vs) ~payload:(((x lsr 50) land 0xfff) - 2048)

  let updates t i = List.init (count t i) (update t i)

  (* Every update of ops [from, upto), in order. *)
  let all_updates ?(from = 0) ?upto t =
    let upto = Option.value upto ~default:t.len in
    let acc = ref [] in
    for i = upto - 1 downto from do
      acc := updates t i @ !acc
    done;
    !acc
end

(* One client's ops: [base] write steps that set-up bulk-loads, then
   [timed] steps with a [read_pct] share of reads. A read always
   directly follows a write and reads the view just written, the
   read-your-writes pattern: so every read carries the token of the
   write before it. Were reads placed at random, a read after a read
   would find its token served and skip the gate, the share of gated
   reads would sit near half, and the read p50 would jump between the
   gated and the ungated latency from run to run. Economy accounts are
   sliced by [worker], so concurrent clients never overdraw. *)
let gen_ops ~tenants ~seed ~worker ~workers ~base ~timed ~read_pct =
  let tarr = Array.of_list tenants in
  let n = Array.length tarr in
  let tables = List.concat_map (fun (tn : Mx.tenant) -> tn.Mx.tables) tenants in
  let rels = Array.of_list (List.map fst tables) in
  let arity = Array.of_list (List.map (fun (_, cols) -> List.length cols) tables) in
  let ids = Hashtbl.create 64 in
  Array.iteri (fun i r -> Hashtbl.replace ids r i) rels;
  let rel_id r = Hashtbl.find ids r in
  let drift = Mx.Drift.create ~seed ~keys ~period:drift_period in
  let gens =
    Array.map (fun tn -> Mx.Tgen.create ~worker ~workers ~accounts tn ~drift ~seed ()) tarr
  in
  let rng = Random.State.make [| seed; 0x5eed; worker |] in
  let write ops i ~op =
    let t = Random.State.int rng n in
    Ops.set_write ops i ~tenant:t ~rel_id (Mx.Tgen.next gens.(t) ~op)
  in
  (* After a write, a read with probability read_pct / (100 - read_pct)
     makes reads read_pct% of all ops. *)
  let after_write = read_pct * 1000 / max 1 (100 - read_pct) in
  let base_ops = Ops.create ~rels ~arity base in
  for i = 0 to base - 1 do
    write base_ops i ~op:i
  done;
  let timed_ops = Ops.create ~rels ~arity timed in
  for i = 0 to timed - 1 do
    if i > 0 && (not (Ops.is_read timed_ops (i - 1))) && Random.State.int rng 1000 < after_write
    then Ops.set_read timed_ops i ~tenant:(Ops.tenant timed_ops (i - 1))
    else write timed_ops i ~op:(base + i)
  done;
  (base_ops, timed_ops)

(* The base rows of set-up: every tenant's opening rows, then the base
   ops of each stream, decoded a chunk at a time. *)
let base_feed tenants streams f =
  f (init_updates tenants);
  List.iter
    (fun ops ->
      let chunk = 4096 in
      let rec go i =
        if i < Ops.length ops then begin
          f (Ops.all_updates ~from:i ~upto:(min (Ops.length ops) (i + chunk)) ops);
          go (i + chunk)
        end
      in
      go 0)
    streams

(* --- samples and percentiles ------------------------------------------ *)

(* Timestamped samples: [v.{i}] observed at [at.{i}], weighing [w.{i}]
   when counted (e.g. the updates of one write). Kept off-heap with a
   fixed capacity, like the inputs, so the benchmark's own bookkeeping
   never counts in live_mb. *)
module Samples = struct
  open Bigarray

  type buf = (float, float64_elt, c_layout) Array1.t
  type t = { at : buf; v : buf; w : buf; mutable n : int }

  let create capacity =
    let buf () = Array1.create float64 c_layout (max 1 capacity) in
    { at = buf (); v = buf (); w = buf (); n = 0 }

  let add ?(w = 1.) s ~at v =
    if s.n = Array1.dim s.v then invalid_arg "Samples.add: capacity exhausted";
    s.at.{s.n} <- at;
    s.v.{s.n} <- v;
    s.w.{s.n} <- w;
    s.n <- s.n + 1

  let sorted s =
    let a = Array.init s.n (fun i -> s.v.{i}) in
    Array.sort compare a;
    a
end

(* Nearest-rank percentile of a sorted array; 0 when empty. *)
let pct sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  pct a 0.5

(* The mean of the highest quarter of the rates [l]. On a shared
   virtual machine the host takes CPU time from the guest (steal) in
   episodes of seconds to minutes, and a round trip between domains
   that loses its core waits for it: when half a window was stolen at a
   third of a core, its throughput fell by a third there. Interference
   only ever slows the program down, so the best slices of a window are
   the ones closest to the program's own speed, as the minimum of
   repeated timings is. A cost that the program pays in only a few
   slices of a window (a stall every few seconds) falls out with the
   noise. *)
let best_quarter l =
  let a = Array.of_list l in
  Array.sort (fun x y -> compare y x) a;
  let k = max 1 (Array.length a / 4) in
  if Array.length a = 0 then 0. else Array.fold_left ( +. ) 0. (Array.sub a 0 k) /. float_of_int k

(* The timed window is cut into [slices] equal slices; each throughput
   is the mean of the best quarter of its per-slice rates. *)
let slices = 20

let slice_of ~t0 ~t1 at =
  max 0 (min (slices - 1) (int_of_float ((at -. t0) /. (t1 -. t0) *. float_of_int slices)))

(* The rate of samples over slices: their count per second, or their
   summed weight per second when [weighted]. *)
let slice_rate ~t0 ~t1 ?(weighted = false) (ss : Samples.t list) =
  let len = (t1 -. t0) /. float_of_int slices in
  let per = Array.make slices 0. in
  List.iter
    (fun (s : Samples.t) ->
      for i = 0 to s.Samples.n - 1 do
        let k = slice_of ~t0 ~t1 s.Samples.at.{i} in
        per.(k) <- (per.(k) +. if weighted then s.Samples.w.{i} else 1.)
      done)
    ss;
  best_quarter (List.map (fun x -> x /. len) (Array.to_list per))

(* A latency percentile over every sample of [ss], in ms. Not a best
   quarter of slices: a serve read either waits in the read-your-writes
   gate or finds its write already applied, and the best slices would
   be those where fewer reads waited, which is the program's own mix,
   not interference. A p50 already ignores a stall that holds fewer
   than half of the samples. *)
let window_pct (ss : Samples.t list) q =
  let all = Array.concat (List.map Samples.sorted ss) in
  Array.sort compare all;
  pct all q *. 1e3

(* The end-to-end metrics, in BENCHMARK.json order. The p99s are
   per-layer figures of the traced run ({!Layers.set_tails}): on a
   2-vCPU virtual machine their spread across runs was far wider than
   any regression bound. *)
let e2e ~setup_s ~ingest_ups ~ops_per_s ~read_p50_ms ~write_p50_ms ~live_mb =
  [
    ("setup_s", "s", setup_s);
    ("ingest_ups", "1/s", ingest_ups);
    ("ops_per_s", "1/s", ops_per_s);
    ("read_p50_ms", "ms", read_p50_ms);
    ("write_p50_ms", "ms", write_p50_ms);
    ("live_mb", "MB", live_mb);
  ]

(* Percentiles of a Metrics histogram over an interval: bucket counts
   at the end minus those at the start. Metrics buckets are geometric
   (ratio 1.25, upper edges reported); the rank is interpolated
   geometrically inside its bucket rather than rounded to the edge. *)
let hist_buckets h = St.Metrics.Hist.to_buckets h
let bucket_ratio = 1.25

let bucket_pct ~before ~after q =
  let counts =
    List.map
      (fun (edge, c) -> (edge, c - Option.value (List.assoc_opt edge before) ~default:0))
      after
  in
  let total = List.fold_left (fun a (_, c) -> a + c) 0 counts in
  if total = 0 then 0.
  else
    let target = Float.max 1. (Float.ceil (q *. float_of_int total)) in
    let rec go acc = function
      | [] -> 0.
      | (edge, c) :: rest ->
          if c > 0 && float_of_int (acc + c) >= target then
            let f = (target -. float_of_int acc) /. float_of_int c in
            edge /. bucket_ratio *. (bucket_ratio ** f)
          else go (acc + c) rest
    in
    go 0 counts

let merge_hists hs =
  let h = St.Metrics.Hist.create () in
  List.iter (fun x -> St.Metrics.Hist.merge_into ~into:h x) hs;
  h

(* --- correctness ------------------------------------------------------ *)

let oracle_kinds = [ Mx.Join; Mx.Triangle; Mx.Minmax; Mx.Economy ]

(* Kinds with no from-scratch oracle; printed so they are never
   mistaken for checked. *)
let unchecked_kinds = [ Mx.Cascade; Mx.Window ]

type verdict = { mutable errors : string list; mutable notes : string list }

let verdict () = { errors = []; notes = [] }
let fail v msg = v.errors <- msg :: v.errors
let note v msg = v.notes <- msg :: v.notes

(* Replay init plus every admitted update through the lib/check oracle
   for the join, triangle, minmax and economy tenants and compare with
   what [served] returns; check economy conservation on the same
   answers. *)
let check_views v ~tenants ~seed ~sent ~served =
  let oracle_tenants = List.filter (fun (tn : Mx.tenant) -> List.mem tn.Mx.kind oracle_kinds) tenants in
  let tables = List.concat_map (fun (tn : Mx.tenant) -> tn.Mx.tables) oracle_tenants in
  let wanted = Hashtbl.create 64 in
  List.iter (fun (name, _) -> Hashtbl.replace wanted name ()) tables;
  let case =
    {
      Ck.Case.family = Ck.Case.Mixed;
      seed;
      query = None;
      order = None;
      k = 0;
      schemas = tables;
      init = [];
      stream = [];
    }
  in
  let ora = Ck.Oracle.create case in
  sent (fun ups ->
      Ck.Oracle.apply ora (List.filter (fun (u : int U.t) -> Hashtbl.mem wanted u.U.rel) ups));
  let expected = Ck.Oracle.enumerate ora in
  let tag name entries =
    List.map (fun (tp, p) -> (D.Tuple.of_list (D.Value.Str name :: D.Tuple.to_list tp), p)) entries
  in
  let got = ref [] in
  List.iter
    (fun (tn : Mx.tenant) ->
      match served tn with
      | Error m -> fail v (Printf.sprintf "%s: read for the check failed: %s" tn.Mx.name m)
      | Ok entries ->
          (match Mx.check_conservation tn ~accounts entries with
          | Ok () -> ()
          | Error m -> fail v m);
          got := List.rev_append (tag tn.Mx.name entries) !got)
    oracle_tenants;
  if Ck.Oracle.equal_entries expected (Ck.Oracle.normalize !got) then
    note v
      (Printf.sprintf "oracle: %d views (%s) match the from-scratch recompute"
         (List.length oracle_tenants)
         (String.concat ", " (List.map Mx.kind_name oracle_kinds)))
  else fail v "oracle: served views diverge from the from-scratch recompute";
  note v
    (Printf.sprintf "unchecked by the oracle (no from-scratch recompute): %s"
       (String.concat ", " (List.map Mx.kind_name unchecked_kinds)))

(* A fresh rebuild is sound for every kind here: each view is a pure
   function of its base tables, and the window generator's lateness
   never exceeds the allowed lateness, so no row is dropped late. *)
let self_check v ~what reg =
  match St.Registry.self_check reg with
  | [] -> note v (Printf.sprintf "self-check: %s views equal a fresh rebuild" what)
  | bad -> fail v (Printf.sprintf "self-check (%s) diverged: %s" what (String.concat ", " bad))

(* Live heap after a full major collection, with [keep] (the running
   system) held reachable across it: the compiler does not keep a value
   alive past its last use. Taken once set-up is done, not at the end of
   the run: the window tenants' base tables grow with every update
   applied, so at the end a faster system would read as a bigger one. *)
let live_mb keep =
  Gc.full_major ();
  let words = (Gc.stat ()).Gc.live_words in
  ignore (Sys.opaque_identity keep);
  float_of_int words *. float_of_int (Sys.word_size / 8) /. 1e6

(* Point-lookup cost over the final base relations: every live tuple
   probed, in rounds, until at least [min_probes] probes ran. *)
let probe_ns dbs =
  let rels =
    List.concat_map
      (fun db ->
        List.filter_map
          (fun (_, rel) ->
            let tuples = Array.of_list (Db.Rel.fold (fun tp _ acc -> tp :: acc) rel []) in
            if Array.length tuples = 0 then None else Some (rel, tuples))
          (Db.relations db))
      dbs
  in
  let total = List.fold_left (fun a (_, t) -> a + Array.length t) 0 rels in
  if total = 0 then 0.
  else begin
    let min_probes = 1_000_000 in
    let rounds = max 1 ((min_probes + total - 1) / total) in
    let hits = ref 0 in
    let t0 = Trace.now () in
    for _ = 1 to rounds do
      List.iter (fun (rel, tuples) -> Array.iter (fun tp -> if Db.Rel.mem rel tp then incr hits) tuples) rels
    done;
    let dt = Trace.now () -. t0 in
    if !hits <> rounds * total then failwith "probe: a live base tuple was not found";
    dt *. 1e9 /. float_of_int (rounds * total)
  end

(* --- results ---------------------------------------------------------- *)

type report = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * string * float) list;  (** name, unit, value *)
}

let json_of_result r =
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {" r.correct
    r.attempted r.failed;
  List.iteri
    (fun i (name, unit, v) ->
      let v = if Float.is_finite v then v else 0. in
      Printf.bprintf b "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" (if i > 0 then ", " else "")
        name v unit)
    r.metrics;
  Buffer.add_string b "}}";
  Buffer.contents b

(* Run-private files (WAL, node state, span dumps) live under the
   checkout, never in a system temp directory. *)
let work_dir = ".perfbench_run"

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let fresh_dir name =
  if not (Sys.file_exists work_dir) then Sys.mkdir work_dir 0o755;
  let dir = Filename.concat work_dir (Printf.sprintf "%s-%d" name (Unix.getpid ())) in
  rm_rf dir;
  Sys.mkdir dir 0o755;
  dir
