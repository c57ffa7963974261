open Olfu_netlist

(** Transition-delay faults (slow-to-rise / slow-to-fall) — the "other
    fault models" extension announced in the paper's conclusion.

    A transition fault at a pin needs the pin {e launched} (set to the
    initial value, then toggled) and the late transition {e propagated} to
    an observation point.  Both requirements collapse onto the stuck-at
    machinery: a mission-constant pin can never toggle, and a blocked pin
    can never propagate, so the same tie/float manipulations expose
    on-line untestable transition faults. *)

type polarity = Slow_to_rise | Slow_to_fall

type t = { site : Fault.site; polarity : polarity }

val equal : t -> t -> bool
val compare : t -> t -> int

val pp : Netlist.t -> Format.formatter -> t -> unit
val to_string : Netlist.t -> t -> string

val universe : ?include_ties:bool -> Netlist.t -> t array
(** Two transition faults per pin, same pin set as {!Fault.universe}. *)

val untestable : Flist.t -> int
(** Transition faults a stuck-at classification proves untestable: a
    pin's two transition faults when either same-site stuck-at fault of
    the list is [Undetectable] — a tied pin cannot launch, a blocked pin
    cannot capture.  The list must be {!Flist.full}'s: it follows
    {!Fault.universe}, which is in {!Fault.compare} order, so indices
    [2j] and [2j+1] are the stuck-at-0 and stuck-at-1 faults of one
    site, and {!universe} has [Flist.size fl] transition faults. *)

val as_stuck_pair : t -> Fault.t * Fault.t
(** The launch/capture reading: a slow-to-rise fault at a pin needs the
    pin controllable to 0 {e and} to 1, and behaves like a transient
    stuck-at-0 during capture.  Returns [(sa0, sa1)] on the same site. *)
