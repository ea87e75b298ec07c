module D = Netlist.Design
module C = Netlist.Cell

let err rule loc msg = Diag.make ~rule ~severity:Diag.Error ~loc msg

let rail b = if b then D.net_true else D.net_false

(* Membership under [Candidate.equal], so a justification matches a
   proved candidate only if every field agrees. *)
module Cand_tbl = Hashtbl.Make (struct
  type t = Engine.Candidate.t

  let equal = Engine.Candidate.equal
  let hash = Hashtbl.hash
end)

(* (1) Every edit must cite a proved invariant that really supports it. *)
let check_edits ?prov_id original proved (cert : Certificate.t) =
  let diags = ref [] in
  let emit rule loc msg = diags := err rule loc msg :: !diags in
  let cite cand =
    match prov_id with
    | None -> ""
    | Some f -> (
        match f cand with
        | Some id -> Printf.sprintf " (inv#%d)" id
        | None -> " (no provenance record)")
  in
  let proved_set = Cand_tbl.create (List.length proved) in
  List.iter (fun c -> Cand_tbl.replace proved_set c ()) proved;
  let seen_nets = Hashtbl.create 16 in
  List.iter
    (fun (e : Certificate.edit) ->
      let loc = Diag.net_loc original e.net in
      if Hashtbl.mem seen_nets e.net then
        emit "cert-mismatch" loc "duplicate edit for this net";
      Hashtbl.replace seen_nets e.net ();
      if not (Cand_tbl.mem proved_set e.justification) then
        emit "cert-unjustified" loc
          (Fmt.str "justification %a%s is not in the proved invariant set"
             (Engine.Candidate.pp original) e.justification
             (cite e.justification))
      else
        match e.justification with
        | Engine.Candidate.Const (n, b) ->
            if e.net <> n then
              emit "cert-mismatch" loc
                (Printf.sprintf
                   "constant invariant is about net %d, edit redirects net %d"
                   n e.net)
            else if e.target <> rail b || e.via <> Certificate.Direct then
              emit "cert-mismatch" loc
                (Printf.sprintf
                   "net proved stuck-at-%d must tie to rail %d, edit targets \
                    net %d"
                   (if b then 1 else 0) (rail b) e.target)
        | Engine.Candidate.Implies { cell; a; b } ->
            if cell < 0 || cell >= D.num_cells original then
              emit "cert-mismatch" loc
                (Printf.sprintf "implication cites unknown cell %d" cell)
            else
              let c = D.cell original cell in
              if e.net <> c.D.out then
                emit "cert-mismatch" loc
                  (Printf.sprintf
                     "implication is about cell %d (out net %d), edit \
                      redirects net %d"
                     cell c.D.out e.net)
              else
                let ok =
                  match (c.D.kind, e.via) with
                  | C.And2, Certificate.Direct -> e.target = a
                  | C.Or2, Certificate.Direct -> e.target = b
                  | C.Nand2, Certificate.Fresh_inv { input; out; _ } ->
                      input = a && e.target = out
                  | C.Nor2, Certificate.Fresh_inv { input; out; _ } ->
                      input = b && e.target = out
                  | _ -> false
                in
                if not ok then
                  emit "cert-mismatch" loc
                    (Printf.sprintf
                       "implication%s on a %s gate does not support \
                        redirecting net %d to net %d"
                       (cite e.justification) (C.name c.D.kind) e.net e.target))
    cert.Certificate.edits;
  List.rev !diags

(* (2) Replay the certificate against the original and demand the exact
   rewired netlist back.  This is an independent re-implementation of
   the published edit semantics, on purpose. *)
let replay original (cert : Certificate.t) =
  let d = D.copy original in
  let problems = ref [] in
  List.iter
    (fun (e : Certificate.edit) ->
      match e.via with
      | Certificate.Direct -> ()
      | Certificate.Fresh_inv { cell; out; input } -> (
          if cell <> D.num_cells d then
            problems :=
              err "cert-mismatch" (Diag.net_loc original e.net)
                (Printf.sprintf
                   "recorded inverter cell id %d, replay is at cell %d" cell
                   (D.num_cells d))
              :: !problems
          else
            match D.add_cell d C.Inv [| input |] with
            | o when o = out -> ()
            | o ->
                problems :=
                  err "cert-mismatch" (Diag.net_loc original e.net)
                    (Printf.sprintf
                       "recorded inverter output net %d, replay allocated %d"
                       out o)
                  :: !problems
            | exception Invalid_argument m ->
                problems :=
                  err "cert-mismatch" (Diag.net_loc original e.net)
                    ("inverter replay failed: " ^ m)
                  :: !problems))
    cert.Certificate.edits;
  if !problems <> [] then Error (List.rev !problems)
  else begin
    let target = Hashtbl.create 64 in
    List.iter
      (fun (e : Certificate.edit) -> Hashtbl.replace target e.net e.target)
      cert.Certificate.edits;
    let rec resolve seen n =
      match Hashtbl.find_opt target n with
      | Some n' when not (List.mem n' seen) -> resolve (n :: seen) n'
      | Some _ | None -> n
    in
    Ok (D.substitute d (fun n -> resolve [] n))
  end

let diff_designs expected rewired =
  let mismatch loc msg = [ err "cert-netlist-mismatch" loc msg ] in
  if D.num_cells expected <> D.num_cells rewired then
    mismatch Diag.Whole_design
      (Printf.sprintf "replay yields %d cells, rewired netlist has %d"
         (D.num_cells expected) (D.num_cells rewired))
  else if D.num_nets expected <> D.num_nets rewired then
    mismatch Diag.Whole_design
      (Printf.sprintf "replay yields %d nets, rewired netlist has %d"
         (D.num_nets expected) (D.num_nets rewired))
  else if D.inputs expected <> D.inputs rewired then
    mismatch Diag.Whole_design "primary inputs differ from replay"
  else if D.outputs expected <> D.outputs rewired then
    mismatch Diag.Whole_design
      (Printf.sprintf "primary outputs differ from replay (replay: %s)"
         (String.concat ", "
            (List.map
               (fun (nm, n) -> Printf.sprintf "%s=net %d" nm n)
               (D.outputs expected))))
  else begin
    let bad = ref None in
    D.iter_cells rewired (fun ci c ->
        if !bad = None then begin
          let e = D.cell expected ci in
          if
            c.D.kind <> e.D.kind || c.D.out <> e.D.out || c.D.init <> e.D.init
            || c.D.ins <> e.D.ins
          then bad := Some (ci, e)
        end);
    match !bad with
    | None -> []
    | Some (ci, e) ->
        mismatch (Diag.cell_loc rewired ci)
          (Printf.sprintf
             "cell differs from certificate replay (expected %s(%s) -> net %d)"
             (C.name e.D.kind)
             (String.concat ", " (Array.to_list (Array.map string_of_int e.D.ins)))
             e.D.out)
  end

(* (3) Rewiring must not create new Error-severity structural findings.
   Only the rules that can emit an Error run: a key carries its rule id,
   so a Warning rule's findings could never be reported here. *)
let error_rules =
  List.filter
    (fun (r : Lint.rule) -> r.Lint.severity = Diag.Error)
    Lint.structural_rules

let lint_regression ?pre_lint original rewired =
  let pre =
    match pre_lint with
    | Some l -> l
    | None -> Lint.run ~rules:error_rules original
  in
  let post = Lint.run ~rules:error_rules rewired in
  let key (d : Diag.t) = (d.Diag.rule, d.Diag.loc) in
  let pre_keys = Hashtbl.create (List.length pre) in
  List.iter (fun d -> Hashtbl.replace pre_keys (key d) ()) pre;
  List.filter_map
    (fun (d : Diag.t) ->
      if d.Diag.severity = Diag.Error && not (Hashtbl.mem pre_keys (key d)) then
        Some
          {
            d with
            Diag.rule = "lint-regression";
            Diag.message = d.Diag.rule ^ ": " ^ d.Diag.message;
          }
      else None)
    post

let run ?pre_lint ?prov_id ~original ~rewired ~proved ~certificate () =
  let justified = check_edits ?prov_id original proved certificate in
  let structural =
    match replay original certificate with
    | Error ds -> ds
    | Ok expected -> diff_designs expected rewired
  in
  justified @ structural @ lint_regression ?pre_lint original rewired
