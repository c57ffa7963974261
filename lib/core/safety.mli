(** ISO 26262 coverage bookkeeping.

    The paper's motivation: "for very critical environments, such as
    airbags or drive-by-wire functions, the standard mandates for 98% of
    fault coverage", with three confidence levels below it.  Pruning
    on-line functionally untestable faults changes the denominator, which
    is often the difference between failing and meeting the target. *)

type asil = QM | A | B | C | D

val required_coverage : asil -> float option
(** Single-point fault metric target as a fraction ([None] for QM).
    ASIL B 90%, C 97%, D 99%; the paper's airbag example states 98% for
    its (ASIL-D-class) application. *)

val paper_airbag_target : float

type verdict = {
  level : asil;
  target : float option;
  raw : float;  (** coverage over the full fault list *)
  pruned : float;  (** coverage after removing undetectable faults *)
  meets_raw : bool;
  meets_pruned : bool;
}

val assess : asil -> Olfu_fault.Flist.t -> verdict
val pp_verdict : Format.formatter -> verdict -> unit
