(** Discrete-event simulation core.

    A [Sim.t] owns a virtual clock and a queue of pending events ordered by
    [(time, sequence)].  All simulated activity — process wakeups, packet
    deliveries, timer expiries — is driven by this queue, which makes every
    run deterministic for a given seed.

    The queue is an indexed binary min-heap over struct-of-arrays event
    slots: times live unboxed in a [float array], and schedule, fire and
    cancel are O(log n) whatever the spread of event times, with
    nothing allocated per event beyond a {!timer} handle.  Ordering is
    exactly [(time, sequence)] — an event scheduled earlier for the
    same instant always fires first, at any queue size. *)

type t

val create : unit -> t
(** A fresh simulator with the clock at [0.0]. *)

val now : t -> float
(** Current virtual time in seconds. *)

val at : t -> float -> (unit -> unit) -> unit
(** [at sim time fn] runs [fn] at absolute virtual [time].  Scheduling in
    the past, or at NaN, raises [Invalid_argument]. *)

val after : t -> float -> (unit -> unit) -> unit
(** [after sim delay fn] runs [fn] at [now sim +. delay]. *)

type timer
(** A cancellable handle for a scheduled event. *)

val timer_after : t -> float -> (unit -> unit) -> timer
(** Like {!after} but returns a handle that {!cancel} can revoke. *)

val cancel : timer -> unit
(** Revoke a timer; a no-op if it already fired or was cancelled, even
    when its slot now holds another event. *)

val pending : timer -> bool
(** [true] until the timer fires or is cancelled; already [false]
    inside its own callback. *)

val step : t -> bool
(** Run the single earliest event.  [false] when the queue is empty. *)

val run : ?until:float -> t -> unit
(** Drain the event queue.  With [~until], stop (leaving later events
    queued) once the next event is strictly past [until] and set the clock
    to [until]. *)

val events_processed : t -> int
(** Total events executed so far; useful for bounding tests. *)

val pending_events : t -> int
(** Events currently queued and not cancelled.  O(1). *)

(** {1 Self-profiling}

    A {!Probe.t} attached here is visible to every layer holding the
    sim, so instrumented sites need no extra plumbing.  When attached,
    {!run} charges queue bookkeeping to the [scheduler] slot, every
    event fire is bracketed and attributed to the slot that scheduled
    it, and scheduling stamps each event with the active slot.  When
    detached (the default) each hook is a single [match] branch. *)

val set_probe : t -> Probe.t option -> unit
(** Attach or detach a profiler probe. *)

val probe : t -> Probe.t option
(** The attached probe, for instrumented sites in higher layers. *)
