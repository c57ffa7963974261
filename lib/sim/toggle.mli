open Olfu_logic
open Olfu_netlist

(** Toggle-activity recorder.

    The paper's debug-screening step (Sec. 4) runs the mature self-test
    suite and flags every signal that shows {e no activity} as a suspected
    mission-unused (debug) signal.  This module implements that metric:
    record net values across simulation snapshots, then report nets that
    never carried both binary values. *)

type t

val create : Netlist.t -> t

val record : t -> Seq_sim.t -> unit
(** Sample every net of a settled simulator. *)

type verdict =
  | Constant of Logic4.t  (** only ever this binary value *)
  | Never_driven  (** only ever X/Z *)
  | Toggled

val verdict : t -> int -> verdict

val suspects : t -> int list
(** Primary inputs that never toggled — the paper's candidate set of tied
    debug control signals. *)
