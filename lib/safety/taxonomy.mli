open Olfu_fault

(** The unified safe-fault taxonomy.

    Every stuck-at fault of the mission configuration lands in exactly
    one class; the partition is built from the flow's final fault-list
    statuses, so the structural/conflict populations are — by
    construction — identical to the Table-I verdicts they come from.
    The transient axis ({!seu_class}) is orthogonal: it classifies
    flip-flops, not stuck-at faults. *)

type safe_class =
  | Structural_uc
      (** proven untestable by a structural argument (UU/UT/UB/UR):
          unconditionally safe in the mission configuration *)
  | Conflict_uc
      (** proven untestable by the static implication closure (UC) *)
  | Software_safe
      (** unproved structurally, but the activation condition contradicts
          software-proven constants (constant address/data bits,
          never-written memory): safe relative to the analysed program
          set (US) *)
  | Invariant_safe
      (** unproved by the above, but the analysis of the mission-held
          machine strengthened with induction-proved state invariants
          ({!Olfu_invar}) classifies it untestable: safe relative to the
          mission hold and the invariant certificates (UI) *)
  | Unclassified  (** no safety proof — assume dangerous *)

val safe_classes : safe_class array
(** All classes, report order. *)

val safe_name : safe_class -> string
val safe_code : safe_class -> string
(** Short machine key (["structural_uc"], ..., ["unclassified"]). *)

val of_status : Status.t -> safe_class
(** The partition rule: [Undetectable Conflict] is {!Conflict_uc},
    [Undetectable Software] is {!Software_safe}, [Undetectable
    Invariant] is {!Invariant_safe}, any other [Undetectable _] is
    {!Structural_uc}, everything else {!Unclassified}. *)

(** Per-flip-flop transient classification (OpenSEA-style), over a
    bounded latching window: what can a single bit-flip in this flop do
    before the window closes? *)
type seu_class =
  | Seu_masked
      (** no reachable input sequence makes any functional output diverge
          within the window *)
  | Seu_protected
      (** some divergence is possible, but every diverging trace also
          diverges on an alarm output within the window — the protection
          circuitry flags the upset *)
  | Seu_vulnerable
      (** some trace diverges functionally with every alarm silent *)
  | Seu_unknown  (** solver budget exhausted — no claim *)
