open Olfu_netlist
module J = Olfu_obs.Json

(* ---------------------------------------------------------------- *)
(* Text                                                             *)
(* ---------------------------------------------------------------- *)

let severity_pad = function
  | Rule.Error -> "error  "
  | Rule.Warning -> "warning"
  | Rule.Info -> "info   "

let pp_finding nl ppf (f : Rule.finding) =
  Format.fprintf ppf "%s %-10s %s" (severity_pad f.Rule.severity) f.Rule.code
    f.Rule.message;
  match f.Rule.node with
  | Some i when f.Rule.message <> "" ->
    Format.fprintf ppf "  [%s]" (Ctx.node_label nl i)
  | _ -> ()

let count sev =
  List.fold_left
    (fun acc (f : Rule.finding) ->
      if f.Rule.severity = sev then acc + 1 else acc)
    0

let text ppf (o : Lint.outcome) =
  let nl = o.Lint.netlist in
  Format.fprintf ppf "@[<v>";
  List.iter (fun f -> Format.fprintf ppf "%a@," (pp_finding nl) f) o.findings;
  List.iter
    (fun w ->
      Format.fprintf ppf "warning: unused waiver: %a@," Config.pp_waiver w)
    o.Lint.unused_waivers;
  Format.fprintf ppf "%d findings (%d errors, %d warnings, %d info)"
    (List.length o.Lint.findings)
    (count Rule.Error o.Lint.findings)
    (count Rule.Warning o.Lint.findings)
    (count Rule.Info o.Lint.findings);
  if o.Lint.waived <> [] || o.Lint.baselined <> [] then
    Format.fprintf ppf "; %d waived, %d baselined"
      (List.length o.Lint.waived)
      (List.length o.Lint.baselined);
  Format.fprintf ppf "@]"

(* ---------------------------------------------------------------- *)
(* Summary table                                                    *)
(* ---------------------------------------------------------------- *)

let summary ppf (o : Lint.outcome) =
  let per_rule =
    List.filter_map
      (fun (r : Rule.t) ->
        let fs =
          List.filter
            (fun (f : Rule.finding) -> f.Rule.code = r.Rule.code)
            o.Lint.findings
        in
        match fs with
        | [] -> None
        | f :: _ ->
          Some (r.Rule.code, f.Rule.severity, r.Rule.category,
                List.length fs, r.Rule.title))
      o.Lint.rules
  in
  Format.fprintf ppf "@[<v>%-11s %-8s %-13s %5s  %s@," "code" "severity"
    "category" "count" "title";
  List.iter
    (fun (code, sev, cat, n, title) ->
      Format.fprintf ppf "%-11s %-8s %-13s %5d  %s@," code
        (Rule.severity_name sev)
        (Rule.category_name cat)
        n title)
    per_rule;
  Format.fprintf ppf "%d rules fired of %d run; %d findings (%d errors)"
    (List.length per_rule)
    (List.length o.Lint.rules)
    (List.length o.Lint.findings)
    (List.length (Lint.errors o.Lint.findings));
  if o.Lint.waived <> [] || o.Lint.baselined <> [] then
    Format.fprintf ppf "; %d waived, %d baselined"
      (List.length o.Lint.waived)
      (List.length o.Lint.baselined);
  Format.fprintf ppf "@]"

(* ---------------------------------------------------------------- *)
(* SARIF-flavoured JSON                                             *)
(* ---------------------------------------------------------------- *)

let sarif_level = function
  | Rule.Error -> "error"
  | Rule.Warning -> "warning"
  | Rule.Info -> "note"

let location nl i =
  J.Obj
    [
      ( "logicalLocations",
        J.List
          [
            J.Obj
              [
                ("name", J.Str (Ctx.node_label nl i));
                ("index", J.Int i);
                ("kind", J.Str "net");
              ];
          ] );
    ]

let json (o : Lint.outcome) =
  let nl = o.Lint.netlist in
  let text s = J.Obj [ ("text", J.Str s) ] in
  let rule (r : Rule.t) =
    J.Obj
      [
        ("id", J.Str r.Rule.code);
        ("shortDescription", text r.Rule.title);
        ("fullDescription", text r.Rule.doc);
        ( "defaultConfiguration",
          J.Obj [ ("level", J.Str (sarif_level r.Rule.severity)) ] );
        ( "properties",
          J.Obj [ ("category", J.Str (Rule.category_name r.Rule.category)) ] );
      ]
  in
  let result (f : Rule.finding) =
    J.Obj
      ([
         ("ruleId", J.Str f.Rule.code);
         ("level", J.Str (sarif_level f.Rule.severity));
         ("message", text f.Rule.message);
       ]
      @ (match f.Rule.node with
        | Some i -> [ ("locations", J.List [ location nl i ]) ]
        | None -> [])
      @
      match f.Rule.path with
      | [] -> []
      | path -> [ ("relatedLocations", J.List (List.map (location nl) path)) ])
  in
  let driver =
    J.Obj
      [
        ("name", J.Str "olfu_lint");
        ("version", J.Str "1.0.0");
        ( "informationUri",
          J.Str "https://example.invalid/olfu (DATE 2013 reproduction)" );
        ("rules", J.List (List.map rule o.Lint.rules));
      ]
  in
  let properties =
    J.Obj
      [
        ("netlistNodes", J.Int (Netlist.length nl));
        ("waived", J.Int (List.length o.Lint.waived));
        ("baselined", J.Int (List.length o.Lint.baselined));
        ( "unusedWaivers",
          J.List
            (List.map
               (fun w -> J.Str (Format.asprintf "%a" Config.pp_waiver w))
               o.Lint.unused_waivers) );
      ]
  in
  J.Obj
    [
      ("$schema", J.Str "https://json.schemastore.org/sarif-2.1.0.json");
      ("version", J.Str "2.1.0");
      ( "runs",
        J.List
          [
            J.Obj
              [
                ("tool", J.Obj [ ("driver", driver) ]);
                ("results", J.List (List.map result o.Lint.findings));
                ("properties", properties);
              ];
          ] );
    ]

let rules_catalogue ppf rules =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun (r : Rule.t) ->
      Format.fprintf ppf "%-11s %-8s %-13s %s@," r.Rule.code
        (Rule.severity_name r.Rule.severity)
        (Rule.category_name r.Rule.category)
        r.Rule.title)
    rules;
  Format.fprintf ppf "%d rules@]" (List.length rules)
