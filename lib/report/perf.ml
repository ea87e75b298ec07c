(* The perf-regression gate: load two schema-versioned BENCH_*.json
   files, diff their timings and counters with noise-aware thresholds,
   render a byte-deterministic markdown delta table, and say whether
   anything regressed.

   Gating rules:
   - scalar fields named [*_s] are wall-clock timings: a regression is
     a relative increase beyond [rel_tol] that is also larger than
     [abs_floor_s] in absolute seconds (both conditions, so micro-noise
     on a 2 ms number can never trip the gate);
   - every other numeric field (counters, cores, speedups) is reported
     as a delta but never gates — SAT call counts legitimately move
     when an optimization lands, and speedups are derived from the
     timings that already gate. *)

exception Perf_error of string

(* ---------------- minimal JSON reader -------------------------------- *)
(* Just enough for the flat BENCH envelope: objects, strings, numbers,
   booleans, nulls, and arrays of numbers. *)

type json =
  | Obj of (string * json) list
  | Arr of json list
  | Num of float
  | Str of string
  | Bool of bool
  | Null

let parse_json ~path s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg =
    raise (Perf_error (Printf.sprintf "%s: invalid JSON at byte %d: %s" path !pos msg))
  in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
          advance ();
          (match peek () with
          | Some 'n' -> Buffer.add_char b '\n'
          | Some 't' -> Buffer.add_char b '\t'
          | Some 'u' ->
              (* keep the raw escape: bench fields never need it decoded *)
              Buffer.add_string b "\\u"
          | Some c -> Buffer.add_char b c
          | None -> fail "unterminated escape");
          advance ();
          go ()
      | Some c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let rec go () =
      match peek () with
      | Some ('0' .. '9' | '-' | '+' | '.' | 'e' | 'E') ->
          advance ();
          go ()
      | _ -> ()
    in
    go ();
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "malformed number"
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail ("expected " ^ word)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let fields = ref [] in
          let rec members () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            fields := (k, v) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ()
            | Some '}' -> advance ()
            | _ -> fail "expected ',' or '}'"
          in
          members ();
          Obj (List.rev !fields)
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let items = ref [] in
          let rec elements () =
            let v = parse_value () in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elements ()
            | Some ']' -> advance ()
            | _ -> fail "expected ',' or ']'"
          in
          elements ();
          Arr (List.rev !items)
        end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (parse_number ())
    | None -> fail "unexpected end of input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

(* ---------------- the bench envelope ---------------------------------- *)

type bench = {
  b_path : string;
  b_schema : int;
  b_target : string;
  b_fields : (string * float) list;  (* numeric scalars, sorted by name *)
}

let load path =
  let contents =
    try
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with Sys_error msg -> raise (Perf_error msg)
  in
  let fields =
    match parse_json ~path contents with
    | Obj fields -> fields
    | _ -> raise (Perf_error (path ^ ": not a JSON object"))
  in
  let schema =
    match List.assoc_opt "schema_version" fields with
    | Some (Num v) -> int_of_float v
    | Some _ -> raise (Perf_error (path ^ ": schema_version is not a number"))
    | None ->
        raise
          (Perf_error
             (path
            ^ ": missing schema_version — regenerate this BENCH file with a \
               current run of its benchmark"))
  in
  let target =
    match List.assoc_opt "target" fields with Some (Str t) -> t | _ -> ""
  in
  let scalars =
    List.filter_map
      (fun (k, v) ->
        match v with
        | Num f when k <> "schema_version" -> Some (k, f)
        | _ -> None)
      fields
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  { b_path = path; b_schema = schema; b_target = target; b_fields = scalars }

(* ---------------- comparison ------------------------------------------ *)

type thresholds = {
  rel_tol : float;        (* relative increase tolerated on gated metrics *)
  abs_floor_s : float;    (* timings below this absolute delta never gate *)
}

let default_thresholds = { rel_tol = 0.15; abs_floor_s = 0.05 }

type delta = {
  d_metric : string;
  d_base : float;
  d_cur : float;
  d_gated : bool;       (* this metric can fail the gate *)
  d_regression : bool;
}

let is_timing name =
  let n = String.length name in
  n > 2 && String.sub name (n - 2) 2 = "_s"

let gate ~tol ~floor base cur =
  cur -. base > floor && cur > base *. (1. +. tol)

let compare_benches ?(thresholds = default_thresholds) ~base cur =
  if base.b_schema <> cur.b_schema then
    raise
      (Perf_error
         (Printf.sprintf
            "schema_version mismatch: %s has %d, %s has %d — regenerate the \
             older file"
            base.b_path base.b_schema cur.b_path cur.b_schema));
  if base.b_target <> "" && cur.b_target <> "" && base.b_target <> cur.b_target
  then
    raise
      (Perf_error
         (Printf.sprintf "target mismatch: %s is '%s', %s is '%s'" base.b_path
            base.b_target cur.b_path cur.b_target));
  List.filter_map
    (fun (name, cur_v) ->
      match List.assoc_opt name base.b_fields with
      | None -> None
      | Some base_v ->
          let gated = is_timing name in
          Some
            {
              d_metric = name;
              d_base = base_v;
              d_cur = cur_v;
              d_gated = gated;
              d_regression =
                gated
                && gate ~tol:thresholds.rel_tol ~floor:thresholds.abs_floor_s
                     base_v cur_v;
            })
    cur.b_fields

let regressions = List.filter (fun d -> d.d_regression)

(* ---------------- rendering ------------------------------------------- *)

let fnum f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.6g" f

let markdown_table ?(thresholds = default_thresholds) ~base cur deltas =
  let b = Buffer.create 2048 in
  let pr fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pr "## Perf delta: %s → %s\n\n"
    (Filename.basename base.b_path)
    (Filename.basename cur.b_path);
  pr "Thresholds: ±%.0f%% relative, %.3fs absolute floor. Only timing rows \
      gate.\n\n"
    (100. *. thresholds.rel_tol)
    thresholds.abs_floor_s;
  pr "| metric | base | current | Δ%% | gate |\n|---|---|---|---|---|\n";
  List.iter
    (fun d ->
      let pct =
        if d.d_base = 0. then if d.d_cur = 0. then "0.0" else "inf"
        else Printf.sprintf "%+.1f" (100. *. (d.d_cur -. d.d_base) /. d.d_base)
      in
      let flag =
        if d.d_regression then "**REGRESSION**"
        else if d.d_gated then "ok"
        else "—"
      in
      pr "| %s | %s | %s | %s | %s |\n" d.d_metric (fnum d.d_base)
        (fnum d.d_cur) pct flag)
    deltas;
  let regs = regressions deltas in
  if regs = [] then pr "\nNo regressions.\n"
  else
    pr "\n**%d regression%s.**\n" (List.length regs)
      (if List.length regs = 1 then "" else "s");
  Buffer.contents b
