(* In-memory spans recorded around the benchmark's own calls into the
   libraries. Each domain appends to its own buffer (no locking on the
   hot path); buffers are collected once every domain has been joined.
   A span has a name, start and end (monotonic seconds), the span that
   was open on the same domain when it started (its parent) and the
   request id current on that domain. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
let enabled = Atomic.make false

(* Span names are interned once at module initialisation, so recording
   stores an int. *)
let names : string array ref = ref [||]

let intern name =
  let id = Array.length !names in
  names := Array.append !names [| name |];
  id

let name_of id = !names.(id)

type buf = {
  mutable n : int;
  mutable id : int array;
  mutable name : int array;
  mutable parent : int array;
  mutable req : int array;
  mutable t0 : float array;
  mutable t1 : float array;
  mutable open_ : int list;
  mutable cur_req : int;
}

let bufs : buf list ref = ref []
let bufs_mutex = Mutex.create ()
let next_id = Atomic.make 1
let next_req = Atomic.make 1

let new_buf () =
  let cap = 1024 in
  let b =
    {
      n = 0;
      id = Array.make cap 0;
      name = Array.make cap 0;
      parent = Array.make cap 0;
      req = Array.make cap 0;
      t0 = Array.make cap 0.;
      t1 = Array.make cap 0.;
      open_ = [];
      cur_req = 0;
    }
  in
  Mutex.protect bufs_mutex (fun () -> bufs := b :: !bufs);
  b

let key = Domain.DLS.new_key new_buf

let grow b =
  let cap = 2 * Array.length b.id in
  let gi a = Array.append a (Array.make (cap - Array.length a) 0) in
  let gf a = Array.append a (Array.make (cap - Array.length a) 0.) in
  b.id <- gi b.id;
  b.name <- gi b.name;
  b.parent <- gi b.parent;
  b.req <- gi b.req;
  b.t0 <- gf b.t0;
  b.t1 <- gf b.t1

let record b ~id ~name ~parent ~t0 ~t1 =
  if b.n = Array.length b.id then grow b;
  let i = b.n in
  b.id.(i) <- id;
  b.name.(i) <- name;
  b.parent.(i) <- parent;
  b.req.(i) <- b.cur_req;
  b.t0.(i) <- t0;
  b.t1.(i) <- t1;
  b.n <- i + 1

(* [span name f] runs [f] inside a span when tracing is on, and is a
   plain call otherwise. *)
let span name f =
  if not (Atomic.get enabled) then f ()
  else begin
    let b = Domain.DLS.get key in
    let id = Atomic.fetch_and_add next_id 1 in
    let parent = match b.open_ with p :: _ -> p | [] -> 0 in
    b.open_ <- id :: b.open_;
    let t0 = now () in
    let finish () =
      record b ~id ~name ~parent ~t0 ~t1:(now ());
      b.open_ <- List.tl b.open_
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(* Run [f] as one client request: spans it opens carry a fresh id. *)
let request f =
  if not (Atomic.get enabled) then f ()
  else begin
    let b = Domain.DLS.get key in
    let saved = b.cur_req in
    b.cur_req <- Atomic.fetch_and_add next_req 1;
    Fun.protect ~finally:(fun () -> b.cur_req <- saved) f
  end

type span = { sid : int; sname : int; sparent : int; sreq : int; s0 : float; s1 : float }

(* Every span recorded so far, sorted by start. Call only once the
   recording domains have been joined. *)
let collect () =
  let all =
    List.concat_map
      (fun b ->
        List.init b.n (fun i ->
            {
              sid = b.id.(i);
              sname = b.name.(i);
              sparent = b.parent.(i);
              sreq = b.req.(i);
              s0 = b.t0.(i);
              s1 = b.t1.(i);
            }))
      !bufs
  in
  List.sort (fun a b -> compare a.s0 b.s0) all

(* Self time of each span: its duration minus the time its direct
   children cover. *)
let self_times spans =
  let child = Hashtbl.create 4096 in
  List.iter
    (fun s ->
      if s.sparent <> 0 then
        let prev = Option.value (Hashtbl.find_opt child s.sparent) ~default:0. in
        Hashtbl.replace child s.sparent (prev +. (s.s1 -. s.s0)))
    spans;
  fun s -> s.s1 -. s.s0 -. Option.value (Hashtbl.find_opt child s.sid) ~default:0.

let write_csv path spans =
  let oc = open_out path in
  output_string oc "id,parent,request,name,start_s,end_s\n";
  List.iter
    (fun s ->
      Printf.fprintf oc "%d,%d,%d,%s,%.9f,%.9f\n" s.sid s.sparent s.sreq (name_of s.sname)
        s.s0 s.s1)
    spans;
  close_out oc
