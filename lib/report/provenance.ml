module D = Netlist.Design
module Cand = Engine.Candidate
module I = Engine.Induction

type cand_record = {
  id : int;
  cand : Cand.t;
  mutable mined_round : int option;
  mutable refine_kill : Engine.Rsim.kill option;
  mutable attribution : I.attribution option;
  mutable cex_file : string option;
}

type edit_record = {
  e_index : int;
  e_edit : Analysis.Certificate.edit;
  e_invariants : int list;
  mutable e_dead : (int * Netlist.Cell.kind) list;
}

type designs = {
  original : D.t;
  rewired : D.t;
  reduced : D.t;
  baseline : D.t;
}

type t = {
  mutable next_id : int;
  by_cand : (Cand.t, cand_record) Hashtbl.t;
  mutable rev_records : cand_record list;
  mutable cert_edits : edit_record list;
  mutable dead_rest : (int * Netlist.Cell.kind) list;
  mutable snap : designs option;
}

let create () =
  {
    next_id = 0;
    by_cand = Hashtbl.create 256;
    rev_records = [];
    cert_edits = [];
    dead_rest = [];
    snap = None;
  }

let register t cands =
  List.iter
    (fun cand ->
      if not (Hashtbl.mem t.by_cand cand) then begin
        let r =
          {
            id = t.next_id;
            cand;
            mined_round = None;
            refine_kill = None;
            attribution = None;
            cex_file = None;
          }
        in
        t.next_id <- t.next_id + 1;
        Hashtbl.replace t.by_cand cand r;
        t.rev_records <- r :: t.rev_records
      end)
    cands

let find t cand = Hashtbl.find_opt t.by_cand cand
let id_of t cand = Option.map (fun r -> r.id) (find t cand)

let set_mined_rounds t l =
  List.iter
    (fun (cand, round) ->
      match find t cand with
      | Some r -> r.mined_round <- Some round
      | None -> ())
    l

let set_refine_kills t l =
  List.iter
    (fun (cand, kill) ->
      match find t cand with
      | Some r -> r.refine_kill <- Some kill
      | None -> ())
    l

let set_attributions t tbl =
  Hashtbl.iter
    (fun cand a ->
      match find t cand with
      | Some r -> r.attribution <- Some a
      | None -> ())
    tbl

let set_cex_file t cand path =
  match find t cand with Some r -> r.cex_file <- Some path | None -> ()

let record_certificate t (cert : Analysis.Certificate.t) =
  t.cert_edits <-
    List.mapi
      (fun i (e : Analysis.Certificate.edit) ->
        {
          e_index = i;
          e_edit = e;
          e_invariants =
            (match id_of t e.Analysis.Certificate.justification with
            | Some id -> [ id ]
            | None -> []);
          e_dead = [];
        })
      cert.Analysis.Certificate.edits

(* Output-reachability, mirroring what [Design.compact] (and hence
   resynthesis) keeps: a cell is live iff some primary output depends
   on it through driver edges. *)
let live_cells d =
  let live_net = Array.make (max 1 (D.num_nets d)) false in
  let live_cell = Array.make (max 1 (D.num_cells d)) false in
  let stack = ref [] in
  let mark n =
    if n >= 0 && n < Array.length live_net && not live_net.(n) then begin
      live_net.(n) <- true;
      stack := n :: !stack
    end
  in
  List.iter (fun (_, n) -> mark n) (D.outputs d);
  let rec drain () =
    match !stack with
    | [] -> ()
    | n :: rest ->
        stack := rest;
        (match D.driver d n with
        | Some ci when not live_cell.(ci) ->
            live_cell.(ci) <- true;
            Array.iter mark (D.cell d ci).D.ins
        | Some _ | None -> ());
        drain ()
  in
  drain ();
  live_cell

(* [substitute] preserves cell ids, so original cell [i] is cell [i] of
   the rewired design; cells beyond the original count are the fresh
   inverters.  A cell live before rewiring but dead after was discon-
   nected by some edit; walking each edit's input cone in application
   order assigns every such cell to the first edit that explains it. *)
let attribute_dead t ~original ~rewired =
  let n_orig = D.num_cells original in
  let live_before = live_cells original in
  let live_after = live_cells rewired in
  let newly_dead = Array.make (max 1 n_orig) false in
  for i = 0 to n_orig - 1 do
    if live_before.(i) && not live_after.(i) then newly_dead.(i) <- true
  done;
  let claimed = Array.make (max 1 n_orig) false in
  let claim_cone er =
    let acc = ref [] in
    let stack = ref [ er.e_edit.Analysis.Certificate.net ] in
    let rec drain () =
      match !stack with
      | [] -> ()
      | n :: rest ->
          stack := rest;
          (match D.driver original n with
          | Some ci when ci < n_orig && newly_dead.(ci) && not claimed.(ci) ->
              claimed.(ci) <- true;
              let c = D.cell original ci in
              acc := (ci, c.D.kind) :: !acc;
              Array.iter (fun n' -> stack := n' :: !stack) c.D.ins
          | Some _ | None -> ());
          drain ()
    in
    drain ();
    er.e_dead <- List.sort compare !acc
  in
  List.iter claim_cone t.cert_edits;
  let rest = ref [] in
  for i = n_orig - 1 downto 0 do
    if newly_dead.(i) && not claimed.(i) then
      rest := (i, (D.cell original i).D.kind) :: !rest
  done;
  t.dead_rest <- !rest

let record_designs t ~original ~rewired ~reduced ~baseline =
  t.snap <- Some { original; rewired; reduced; baseline };
  attribute_dead t ~original ~rewired

let records t = List.rev t.rev_records
let edits t = t.cert_edits
let unattributed_dead t = t.dead_rest
let designs t = t.snap

let proved_ids t =
  List.filter_map
    (fun r ->
      match r.attribution with
      | Some a when I.verdict_proves a.I.verdict -> Some r.id
      | _ -> None)
    (records t)
