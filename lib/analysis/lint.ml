module D = Netlist.Design
module C = Netlist.Cell

type gate = Off | Warn | Strict

let gate_name = function Off -> "off" | Warn -> "warn" | Strict -> "strict"

(* What every rule of one [run] reads; built by [context] below.  A
   [Design.t] is mutable, so nothing here outlives the call that built
   it. *)
type ctx = {
  d : D.t;
  drivers : int list array;
  is_pi : bool array;
  absint : Engine.Absint.t option Lazy.t;
}

type rule = {
  id : string;
  severity : Diag.severity;
  doc : string;
  check : ctx -> Diag.t list;
}

(* ------------------------------------------------------------------ *)
(* Well-formedness: the array-indexing contract every rule relies on. *)

let well_formed d =
  let n_nets = D.num_nets d in
  let diags = ref [] in
  let emit rule loc msg =
    diags := Diag.make ~rule ~severity:Diag.Error ~loc msg :: !diags
  in
  D.iter_cells d (fun ci c ->
      let kind = C.name c.D.kind in
      if Array.length c.D.ins <> C.arity c.D.kind then
        emit "bad-arity"
          (Diag.Cell { cell = ci; kind; out = c.D.out; out_name = "?" })
          (Printf.sprintf "%s expects %d inputs, cell has %d" kind
             (C.arity c.D.kind) (Array.length c.D.ins));
      Array.iteri
        (fun pin n ->
          if n < 0 || n >= n_nets then
            emit "net-out-of-range"
              (Diag.Cell { cell = ci; kind; out = c.D.out; out_name = "?" })
              (Printf.sprintf
                 "input pin %s references net %d but the design has %d nets"
                 (try C.input_pin_name c.D.kind pin with _ -> string_of_int pin)
                 n n_nets))
        c.D.ins;
      if c.D.out < 0 || c.D.out >= n_nets then
        emit "net-out-of-range"
          (Diag.Cell { cell = ci; kind; out = c.D.out; out_name = "?" })
          (Printf.sprintf "output net %d out of range (%d nets)" c.D.out n_nets));
  List.iter
    (fun (nm, n) ->
      if n < 0 || n >= n_nets then
        emit "net-out-of-range" (Diag.Port nm)
          (Printf.sprintf "output port maps to net %d but the design has %d nets"
             n n_nets))
    (D.outputs d);
  List.rev !diags

(* ------------------------------------------------------------------ *)
(* The per-call context.  Driver lists are recomputed from the cell
   list rather than trusted from the store's driver index, so the rules
   stay honest on netlists built with [unsafe_add_cell_out]. *)

let drivers_of d =
  let a = Array.make (max 1 (D.num_nets d)) [] in
  D.iter_cells d (fun ci c -> a.(c.D.out) <- ci :: a.(c.D.out));
  Array.map List.rev a

let pi_mask d =
  let a = Array.make (max 1 (D.num_nets d)) false in
  List.iter (fun (_, n) -> a.(n) <- true) (D.inputs d);
  a

(* The abstract interpreter schedules the design, so a cyclic or
   otherwise degenerate netlist must not reach it — those shapes are
   already reported by the Error-severity rules.  Forced only by the
   dataflow rules, so a structural-only run never pays for it. *)
let absint_of d =
  match
    Engine.Absint.run d ~classify:(fun _ -> Engine.Ternary.Free)
      ~assume:Netlist.Design.net_true
  with
  | exception _ -> None
  | ai -> Some ai

let context d =
  { d; drivers = drivers_of d; is_pi = pi_mask d; absint = lazy (absint_of d) }

(* ------------------------------------------------------------------ *)
(* Rules. *)

let check_multi_driven { d; drivers; is_pi; _ } =
  let diags = ref [] in
  for n = 0 to D.num_nets d - 1 do
    let cells = drivers.(n) in
    let total = List.length cells + if is_pi.(n) then 1 else 0 in
    if total > 1 then begin
      let who =
        (List.map
           (fun ci ->
             Printf.sprintf "cell %d (%s)" ci (C.name (D.cell d ci).D.kind))
           cells
        @ if is_pi.(n) then [ "primary input" ] else [])
        |> String.concat ", "
      in
      diags :=
        Diag.make ~rule:"multi-driven" ~severity:Diag.Error
          ~loc:(Diag.net_loc d n)
          (Printf.sprintf "%d drivers: %s" total who)
        :: !diags
    end
  done;
  List.rev !diags

let check_undriven_inputs { d; drivers; is_pi; _ } =
  let diags = ref [] in
  D.iter_cells d (fun ci c ->
      Array.iteri
        (fun pin n ->
          if drivers.(n) = [] && not is_pi.(n) then
            diags :=
              Diag.make ~rule:"undriven-input" ~severity:Diag.Error
                ~loc:(Diag.cell_loc d ci)
                (Printf.sprintf "input pin %s (net %d %s) is floating"
                   (C.input_pin_name c.D.kind pin)
                   n (D.net_name d n))
              :: !diags)
        c.D.ins);
  List.rev !diags

let check_undriven_outputs { d; drivers; is_pi; _ } =
  List.filter_map
    (fun (nm, n) ->
      if drivers.(n) = [] && not is_pi.(n) then
        Some
          (Diag.make ~rule:"undriven-output" ~severity:Diag.Error
             ~loc:(Diag.Port nm)
             (Printf.sprintf "output is fed by undriven net %d (%s)" n
                (D.net_name d n)))
      else None)
    (D.outputs d)

let check_comb_cycles { d; drivers; _ } =
  let n_cells = D.num_cells d in
  let color = Array.make (max 1 n_cells) 0 in
  let diags = ref [] in
  (* DFS over combinational cells only; an edge runs from the driver of
     an input net to the consuming cell.  A gray hit is a back edge and
     [path] (most-recent-first ancestor outs) yields the witness. *)
  let rec visit path ci =
    let c = D.cell d ci in
    if C.is_sequential c.D.kind then ()
    else
      match color.(ci) with
      | 2 -> ()
      | 1 ->
          let rec take acc = function
            | [] -> acc
            | (ci', o) :: rest ->
                if ci' = ci then o :: acc else take (o :: acc) rest
          in
          let cycle = take [] path in
          let shown = if List.length cycle > 8 then 8 else List.length cycle in
          let names =
            List.filteri (fun i _ -> i < shown) cycle
            |> List.map (D.net_name d)
            |> String.concat " -> "
          in
          let suffix =
            if shown < List.length cycle then
              Printf.sprintf " -> ... (%d nets)" (List.length cycle)
            else ""
          in
          diags :=
            Diag.make ~rule:"comb-cycle" ~severity:Diag.Error
              ~loc:(Diag.cell_loc d ci)
              (Printf.sprintf "combinational cycle: %s%s" names suffix)
            :: !diags
      | _ ->
          color.(ci) <- 1;
          Array.iter
            (fun n -> List.iter (visit ((ci, c.D.out) :: path)) drivers.(n))
            c.D.ins;
          color.(ci) <- 2
  in
  for ci = 0 to n_cells - 1 do
    visit [] ci
  done;
  List.rev !diags

let check_unreachable_cells { d; drivers; _ } =
  let cell_live = Array.make (max 1 (D.num_cells d)) false in
  let net_seen = Array.make (max 1 (D.num_nets d)) false in
  let stack = ref [] in
  let visit n =
    if not net_seen.(n) then begin
      net_seen.(n) <- true;
      stack := n :: !stack
    end
  in
  List.iter (fun (_, n) -> visit n) (D.outputs d);
  let rec drain () =
    match !stack with
    | [] -> ()
    | n :: rest ->
        stack := rest;
        List.iter
          (fun ci ->
            if not cell_live.(ci) then begin
              cell_live.(ci) <- true;
              Array.iter visit (D.cell d ci).D.ins
            end)
          drivers.(n);
        drain ()
  in
  drain ();
  let diags = ref [] in
  D.iter_cells d (fun ci c ->
      let is_tie = c.D.kind = C.Const0 || c.D.kind = C.Const1 in
      if (not cell_live.(ci)) && not is_tie then
        diags :=
          Diag.make ~rule:"unreachable-cell" ~severity:Diag.Warning
            ~loc:(Diag.cell_loc d ci)
            "no forward path to any primary output; dead logic"
          :: !diags);
  List.rev !diags

let check_const_feedback_regs { d; _ } =
  let diags = ref [] in
  D.iter_cells d (fun ci c ->
      if c.D.kind = C.Dff then begin
        let data = c.D.ins.(0) in
        if data = c.D.out then
          diags :=
            Diag.make ~rule:"const-feedback-reg" ~severity:Diag.Warning
              ~loc:(Diag.cell_loc d ci)
              (Printf.sprintf
                 "register feeds itself; it holds its reset value %B forever"
                 c.D.init)
            :: !diags
        else if data = D.net_false || data = D.net_true then
          diags :=
            Diag.make ~rule:"const-feedback-reg" ~severity:Diag.Warning
              ~loc:(Diag.cell_loc d ci)
              (Printf.sprintf
                 "register data input is tied to the constant-%d rail"
                 (if data = D.net_true then 1 else 0))
            :: !diags
      end);
  List.rev !diags

let parse_indexed nm =
  match String.index_opt nm '[' with
  | Some i when i > 0 && String.length nm > i + 2 && nm.[String.length nm - 1] = ']'
    -> (
      let base = String.sub nm 0 i in
      match int_of_string_opt (String.sub nm (i + 1) (String.length nm - i - 2)) with
      | Some idx when idx >= 0 -> Some (base, idx)
      | _ -> None)
  | _ -> None

let check_bus_groups { d; _ } =
  let check_side side ports =
    (* Group the side's ports by bus base, keeping first-seen order so
       diagnostics are deterministic. *)
    let order = ref [] in
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun (nm, _) ->
        let base, entry =
          match parse_indexed nm with
          | Some (base, i) -> (base, Some i)
          | None -> (nm, None)
        in
        if not (Hashtbl.mem tbl base) then order := base :: !order;
        Hashtbl.replace tbl base (entry :: (try Hashtbl.find tbl base with Not_found -> [])))
      ports;
    List.concat_map
      (fun base ->
        let entries = List.rev (Hashtbl.find tbl base) in
        let idxs = List.filter_map Fun.id entries in
        if idxs = [] then []
        else
          let warn msg =
            Diag.make ~rule:"bus-mismatch" ~severity:Diag.Warning
              ~loc:(Diag.Port base) msg
          in
          let scalar_clash =
            if List.exists (fun e -> e = None) entries then
              [ warn (Printf.sprintf "%s bus %s mixes a scalar port with indexed bits" side base) ]
            else []
          in
          let sorted = List.sort compare idxs in
          let rec dups = function
            | a :: (b :: _ as rest) ->
                if a = b then
                  warn (Printf.sprintf "%s bus %s declares bit [%d] twice" side base a)
                  :: dups (List.filter (fun x -> x <> a) rest)
                else dups rest
            | _ -> []
          in
          let uniq = List.sort_uniq compare idxs in
          let gaps =
            match uniq with
            | [] | [ _ ] -> []
            | lo :: _ ->
                let hi = List.nth uniq (List.length uniq - 1) in
                let missing = ref [] in
                for i = hi downto lo do
                  if not (List.mem i uniq) then missing := i :: !missing
                done;
                if !missing = [] then []
                else
                  [ warn
                      (Printf.sprintf
                         "%s bus %s[%d:%d] has width gaps: missing %s" side base
                         hi lo
                         (String.concat ", "
                            (List.map (Printf.sprintf "[%d]") !missing)))
                  ]
          in
          scalar_clash @ dups sorted @ gaps)
      (List.rev !order)
  in
  check_side "input" (D.inputs d) @ check_side "output" (D.outputs d)

let check_ternary_consts { d; absint; _ } =
  match Lazy.force absint with
  | None -> []
  | Some ai ->
      List.filter_map
        (function
          | Engine.Candidate.Const (n, b) ->
              Some
                (Diag.make ~rule:"ternary-const" ~severity:Diag.Info
                   ~loc:(Diag.net_loc d n)
                   (Printf.sprintf
                      "ternary reachability forces this net to %d with all \
                       inputs free; dead candidate, the miner can skip it"
                      (if b then 1 else 0)))
          | _ -> None)
        (Engine.Absint.constants ai)

let check_stuck_regs { d; absint; _ } =
  match Lazy.force absint with
  | None -> []
  | Some ai ->
      List.map
        (fun (ci, b) ->
          Diag.make ~rule:"absint-stuck-reg" ~severity:Diag.Warning
            ~loc:(Diag.net_loc d (D.cell d ci).D.out)
            (Printf.sprintf
               "register is stuck at %d from reset under abstract \
                interpretation; its state bit carries no information"
               (if b then 1 else 0)))
        (Engine.Absint.stuck_registers ai)

let check_dead_writes { d; absint; _ } =
  match Lazy.force absint with
  | None -> []
  | Some ai ->
      List.map
        (fun (ci, sel) ->
          Diag.make ~rule:"absint-dead-write" ~severity:Diag.Info
            ~loc:(Diag.net_loc d (D.cell d ci).D.out)
            (Printf.sprintf
               "register data mux select is always %d; the %s-input write \
                arm is dead"
               (if sel then 1 else 0)
               (if sel then "A" else "B")))
        (Engine.Absint.dead_writes ai)

let structural_rules =
  [
    {
      id = "multi-driven";
      severity = Diag.Error;
      doc = "a net with more than one driver (cells and/or a primary input)";
      check = check_multi_driven;
    };
    {
      id = "undriven-input";
      severity = Diag.Error;
      doc = "a cell input pin fed by a net with no driver";
      check = check_undriven_inputs;
    };
    {
      id = "undriven-output";
      severity = Diag.Error;
      doc = "a primary output fed by a net with no driver";
      check = check_undriven_outputs;
    };
    {
      id = "comb-cycle";
      severity = Diag.Error;
      doc = "a combinational cycle through non-register cells";
      check = check_comb_cycles;
    };
    {
      id = "bus-mismatch";
      severity = Diag.Warning;
      doc = "width gaps, duplicate bits or scalar clashes in indexed port buses";
      check = check_bus_groups;
    };
    {
      id = "unreachable-cell";
      severity = Diag.Warning;
      doc = "a cell with no forward path to any primary output";
      check = check_unreachable_cells;
    };
    {
      id = "const-feedback-reg";
      severity = Diag.Warning;
      doc = "a register whose data input is itself or a constant rail";
      check = check_const_feedback_regs;
    };
  ]

let all_rules =
  structural_rules
  @ [
      {
        id = "ternary-const";
        severity = Diag.Info;
        doc = "a net forced constant by 0/1/X reachability with all inputs free";
        check = check_ternary_consts;
      };
      {
        id = "absint-stuck-reg";
        severity = Diag.Warning;
        doc = "a register stuck at its reset value in the abstract fixpoint";
        check = check_stuck_regs;
      };
      {
        id = "absint-dead-write";
        severity = Diag.Info;
        doc = "a register write mux whose select is constant in the fixpoint";
        check = check_dead_writes;
      };
    ]

let run ?(rules = all_rules) d =
  match well_formed d with
  | [] ->
      let cx = context d in
      List.concat_map (fun r -> r.check cx) rules
  | diags -> diags
