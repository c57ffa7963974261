open Olfu_fault

type safe_class =
  | Structural_uc
  | Conflict_uc
  | Software_safe
  | Invariant_safe
  | Unclassified

let safe_classes =
  [| Structural_uc; Conflict_uc; Software_safe; Invariant_safe; Unclassified |]

let safe_name = function
  | Structural_uc -> "structural UC"
  | Conflict_uc -> "conflict UC"
  | Software_safe -> "software safe"
  | Invariant_safe -> "invariant safe"
  | Unclassified -> "unclassified"

let safe_code = function
  | Structural_uc -> "structural_uc"
  | Conflict_uc -> "conflict_uc"
  | Software_safe -> "software_safe"
  | Invariant_safe -> "invariant_safe"
  | Unclassified -> "unclassified"

let of_status = function
  | Status.Undetectable Status.Conflict -> Conflict_uc
  | Status.Undetectable Status.Software -> Software_safe
  | Status.Undetectable Status.Invariant -> Invariant_safe
  | Status.Undetectable _ -> Structural_uc
  | Status.Not_analyzed | Status.Detected | Status.Possibly_detected
  | Status.Atpg_untestable | Status.Not_detected ->
    Unclassified

type seu_class = Seu_masked | Seu_protected | Seu_vulnerable | Seu_unknown
