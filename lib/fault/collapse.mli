(** Structural fault collapsing.

    Equivalence classes under the classic gate-local rules:
    {ul
    {- [BUF]/[OUTPUT]: input s\@v ≡ output s\@v; [NOT]: input s\@v ≡ output
       s\@(1−v);}
    {- [AND]: any input s\@0 ≡ output s\@0 (and dually for NAND/OR/NOR);}
    {- single-fanout nets: stem fault ≡ its only branch fault.}}

    Collapsed counts are what ATPG tools report as "prime" faults; the
    paper's universe (and Table I) counts {e uncollapsed} faults, so both
    views are provided. *)

type t

val compute : Flist.t -> t

val same_class : t -> int -> int -> bool
val num_classes : t -> int
val class_members : t -> int -> int list
(** Members of the class of fault [i] (including [i]), ascending. *)

val representatives : t -> int list

val spread : t -> Flist.t -> unit
(** Propagate each representative's status to its whole class (statuses of
    non-representative members are overwritten). *)

val dominance_pairs : Flist.t -> (int * int) list
(** [(dominator, dominated)] pairs under the classic gate rules (any test
    for the dominated fault also detects the dominator — e.g. an AND
    input s\@1 test detects the output s\@1).  Used to shrink a target
    list further than equivalence alone: dominators need no explicit
    target when their dominated fault is targeted. *)

val dominance_prune : Flist.t -> int
(** Marks every dominator whose dominated counterpart is still in the
    target set as [Not_detected] (detected implicitly); returns the
    count.  Purely an ATPG-effort optimization; statuses other than
    [Not_analyzed] are left alone. *)
