(** A broadcast wake-up with a timed wait. A waiter blocks until its
    predicate over shared state holds or its deadline passes; a
    notifier calls {!notify} after every change that may make some
    predicate true. Each blocked waiter holds a private self-pipe and
    sleeps in [Unix.select] on its remaining time, so the deadline needs
    no timer thread and an idle notifier costs nothing. *)

type t

val create : unit -> t

val notify : t -> unit
(** Wake every current waiter to re-check its predicate. Call it
    {e after} the state change is published. Never blocks: at most one
    wake byte is outstanding per waiter. *)

val await : t -> deadline:float -> (unit -> bool) -> bool
(** [await t ~deadline ready] is [true] as soon as [ready ()] holds and
    [false] once the wall clock ([Unix.gettimeofday]) passes [deadline]
    first. [ready] runs on the caller's domain, once up front and again
    after every wake-up; it may take locks other than [t]'s. A
    {!notify} that follows a state change is never lost, whether it
    lands before the waiter blocks or while it is blocked. *)

val waiting : t -> int
(** Waiters currently blocked — a test seam for ordering a notify
    during a wait. *)
