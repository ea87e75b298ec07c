exception Parse_error of { line : int; token : string; reason : string }

let () =
  Printexc.register_printer (function
    | Parse_error { line; token; reason } ->
        Some
          (Printf.sprintf "Dimacs.Parse_error: line %d, at %S: %s" line token
             reason)
    | _ -> None)

let error ~line ~token reason = raise (Parse_error { line; token; reason })

type warning = { line : int; token : string; reason : string }

let parse ?(on_warning = fun (_ : warning) -> ()) src =
  let n_vars = ref 0 in
  let header_seen = ref false in
  let clauses = ref [] in
  let current = ref [] in
  let lines = String.split_on_char '\n' src in
  List.iteri
    (fun i raw ->
      let line = i + 1 in
      let text = String.trim raw in
      if text = "" || text.[0] = 'c' then ()
      else if text.[0] = 'p' then begin
        if !header_seen then
          error ~line ~token:text "duplicate problem line";
        match String.split_on_char ' ' text |> List.filter (( <> ) "") with
        | [ "p"; "cnf"; nv; nc ] -> (
            match (int_of_string_opt nv, int_of_string_opt nc) with
            | Some v, Some c when v >= 0 && c >= 0 ->
                n_vars := v;
                header_seen := true
            | _ ->
                error ~line ~token:text
                  "malformed problem line (expected `p cnf <vars> <clauses>')")
        | _ ->
            error ~line ~token:text
              "malformed problem line (expected `p cnf <vars> <clauses>')"
      end
      else
        String.split_on_char ' ' text
        |> List.filter (( <> ) "")
        |> List.iter (fun tok ->
               match int_of_string_opt tok with
               | None -> error ~line ~token:tok "not an integer literal"
               | Some 0 ->
                   clauses := List.rev !current :: !clauses;
                   current := []
               | Some v ->
                   if not !header_seen then
                     error ~line ~token:tok "clause before the problem line";
                   (* not [abs v > n_vars]: [abs min_int] is negative *)
                   if v > !n_vars || v < - !n_vars then
                     error ~line ~token:tok
                       (Printf.sprintf
                          "literal exceeds the %d declared variables" !n_vars);
                   let lit = Lit.of_int v in
                   if List.mem lit !current then
                     on_warning
                       {
                         line;
                         token = tok;
                         reason = "duplicate literal in clause, dropped";
                       }
                   else current := lit :: !current))
    lines;
  if !current <> [] then clauses := List.rev !current :: !clauses;
  (!n_vars, List.rev !clauses)

let load ?on_warning solver src =
  let n_vars, clauses = parse ?on_warning src in
  for _ = 1 to n_vars do
    ignore (Solver.new_var solver)
  done;
  List.iter (Solver.add_clause solver) clauses

let to_string (n_vars, clauses) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "p cnf %d %d\n" n_vars (List.length clauses));
  List.iter
    (fun c ->
      List.iter (fun l -> Buffer.add_string buf (string_of_int (Lit.to_int l) ^ " ")) c;
      Buffer.add_string buf "0\n")
    clauses;
  Buffer.contents buf
