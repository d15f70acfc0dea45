(** A broadcast wake-up with a timed wait: the event a waiter blocks on
    until some predicate over shared state holds or its deadline passes.

    OCaml's [Condition] has no timed wait, and a deadline kept by a
    polling sleep or a ticker domain costs latency or a core. Here each
    blocked waiter owns a self-pipe for the duration of its wait and
    blocks in [Unix.select] on the time left; {!notify} writes one byte
    into every registered waiter's pipe. Nothing runs, and no descriptor
    is held, while nobody waits.

    No wake-up is lost: a waiter registers (under the mutex) {e before}
    it evaluates its predicate, and a notifier changes the shared state
    {e before} it takes the mutex to broadcast. Either the broadcast
    sees the registration and writes the byte, or the registration came
    after the broadcast, whose mutex hand-off makes the state change
    visible to the predicate the waiter evaluates next. *)

type waiter = {
  r : Unix.file_descr;
  w : Unix.file_descr;
  mutable pending : bool;
      (* a wake byte is in the pipe and not yet consumed: later
         broadcasts skip the write, so a pipe never holds more than one
         byte and a write never blocks *)
}

type t = { mutex : Mutex.t; mutable waiters : waiter list }

let create () = { mutex = Mutex.create (); waiters = [] }
let byte = Bytes.make 1 '!'

let notify t =
  Mutex.protect t.mutex (fun () ->
      List.iter
        (fun w ->
          if not w.pending then begin
            w.pending <- true;
            try ignore (Unix.single_write w.w byte 0 1) with Unix.Unix_error _ -> ()
          end)
        t.waiters)

let waiting t = Mutex.protect t.mutex (fun () -> List.length t.waiters)

let await t ~deadline ready =
  ready ()
  ||
  let r, w = Unix.pipe ~cloexec:true () in
  let me = { r; w; pending = false } in
  Mutex.protect t.mutex (fun () -> t.waiters <- me :: t.waiters);
  let finally () =
    Mutex.protect t.mutex (fun () -> t.waiters <- List.filter (fun x -> x != me) t.waiters);
    Unix.close r;
    Unix.close w
  in
  let buf = Bytes.create 1 in
  let rec loop () =
    ready ()
    ||
    let left = deadline -. Unix.gettimeofday () in
    left > 0.
    && begin
         (match Unix.select [ r ] [] [] left with
         | [], _, _ -> ()
         | _ ->
             (* Consume the byte, then re-arm: a broadcast landing after
                the re-arm writes a fresh byte, so the predicate check
                below can never miss it. *)
             ignore (Unix.read r buf 0 1);
             Mutex.protect t.mutex (fun () -> me.pending <- false)
         | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
         loop ()
       end
  in
  Fun.protect ~finally loop
