exception Parse_error of { line : int; reason : string }

let () =
  Printexc.register_printer (function
    | Parse_error { line; reason } ->
        Some (Printf.sprintf "Verilog.Parse_error: line %d: %s" line reason)
    | _ -> None)

let error ~line reason = raise (Parse_error { line; reason })

(* Identifiers containing characters outside [A-Za-z0-9_$] are emitted
   in escaped form (backslash prefix, trailing space), per the Verilog
   grammar; bus bit names like "instr[3]" need this. *)
let emit_id nm =
  let plain =
    String.length nm > 0
    && (match nm.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
    && String.for_all
         (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '$' -> true | _ -> false)
         nm
  in
  if plain then nm else "\\" ^ nm ^ " "

let to_string d =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let net_id = Array.make (Design.num_nets d) "" in
  List.iter (fun (nm, n) -> net_id.(n) <- emit_id nm) (Design.inputs d);
  let wires = ref [] in
  let name_of n =
    if net_id.(n) = "" then begin
      let nm = Printf.sprintf "n%d" n in
      net_id.(n) <- nm;
      wires := nm :: !wires
    end;
    net_id.(n)
  in
  ignore (name_of Design.net_false);
  ignore (name_of Design.net_true);
  let has_flops =
    Design.fold_cells d (fun acc _ c -> acc || Cell.is_sequential c.kind) false
  in
  let ports =
    (if has_flops then [ "input CLK" ] else [])
    @ List.map (fun (nm, _) -> "input " ^ emit_id nm) (Design.inputs d)
    @ List.map (fun (nm, _) -> "output " ^ emit_id nm) (Design.outputs d)
  in
  (* Pre-visit cells so wire declarations precede instances. *)
  let instances = Buffer.create 4096 in
  Design.iter_cells d (fun ci c ->
      let pins =
        Array.to_list
          (Array.mapi
             (fun i n ->
               Printf.sprintf ".%s(%s)" (Cell.input_pin_name c.kind i) (name_of n))
             c.ins)
        @ [ Printf.sprintf ".%s(%s)" (Cell.output_pin_name c.kind) (name_of c.out) ]
      in
      let pins = if c.kind = Cell.Dff then ".CK(CLK)" :: pins else pins in
      let attr =
        if c.kind = Cell.Dff then
          Printf.sprintf "(* init = %d *) " (if c.init then 1 else 0)
        else ""
      in
      Buffer.add_string instances
        (Printf.sprintf "  %s%s u%d (%s);\n" attr (Cell.name c.kind) ci
           (String.concat ", " pins)));
  add "module %s (%s);\n" (emit_id (Design.name d)) (String.concat ", " ports);
  List.iter (fun w -> add "  wire %s;\n" (emit_id w)) (List.rev !wires);
  Buffer.add_buffer buf instances;
  (* Outputs are plain assigns from their driving nets. *)
  List.iter
    (fun (nm, n) -> add "  assign %s = %s;\n" (emit_id nm) (name_of n))
    (Design.outputs d);
  add "endmodule\n";
  Buffer.contents buf

let write_file d path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string d))

(* ------------------------------------------------------------------ *)
(* Reader                                                              *)
(* ------------------------------------------------------------------ *)

type token =
  | Id of string
  | Punct of char
  | Attr of string * int

(* Each token carries the 1-based line it starts on. *)
let tokenize src =
  let toks = ref [] in
  let n = String.length src in
  let i = ref 0 in
  let line = ref 1 in
  let push t = toks := (t, !line) :: !toks in
  let fail msg = error ~line:!line msg in
  while !i < n do
    match src.[!i] with
    | '\n' ->
        incr line;
        incr i
    | ' ' | '\t' | '\r' -> incr i
    | '/' when !i + 1 < n && src.[!i + 1] = '/' ->
        while !i < n && src.[!i] <> '\n' do incr i done
    | '(' when !i + 1 < n && src.[!i + 1] = '*' ->
        (* attribute: (* init = 0 *) *)
        let rec find j =
          if j + 1 >= n then fail "unterminated attribute"
          else if src.[j] = '*' && src.[j + 1] = ')' then j
          else find (j + 1)
        in
        let close = find (!i + 2) in
        let body = String.sub src (!i + 2) (close - !i - 2) in
        (match String.split_on_char '=' body with
        | [ k; v ] -> (
            match int_of_string_opt (String.trim v) with
            | Some v -> push (Attr (String.trim k, v))
            | None -> fail ("bad attribute value: " ^ body))
        | _ -> fail ("bad attribute: " ^ body));
        String.iter (fun c -> if c = '\n' then incr line) body;
        i := close + 2
    | '\\' ->
        let start = !i + 1 in
        let rec stop j = if j >= n || src.[j] = ' ' || src.[j] = '\n' then j else stop (j + 1) in
        let j = stop start in
        push (Id (String.sub src start (j - start)));
        i := j
    | 'a' .. 'z' | 'A' .. 'Z' | '_' | '0' .. '9' | '$' ->
        let start = !i in
        let rec stop j =
          if j >= n then j
          else
            match src.[j] with
            | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '$' | '[' | ']' | '\'' -> stop (j + 1)
            | _ -> j
        in
        let j = stop start in
        push (Id (String.sub src start (j - start)));
        i := j
    | ('(' | ')' | ';' | ',' | '.' | '=') as c ->
        push (Punct c);
        incr i
    | c -> fail (Printf.sprintf "unexpected character %C" c)
  done;
  List.rev !toks

(* [line] is the line of the last token taken, so an error points at
   the token that broke the grammar, or at the last one when the input
   ends early. *)
type stream = { mutable toks : (token * int) list; mutable line : int }

let fail st reason = error ~line:st.line reason

let next st =
  match st.toks with
  | [] -> fail st "unexpected end of input"
  | (t, line) :: rest ->
      st.toks <- rest;
      st.line <- line;
      t

let expect_id st =
  match next st with
  | Id s -> s
  | _ -> fail st "expected identifier"

let expect_punct st c =
  match next st with
  | Punct c' when c = c' -> ()
  | _ -> fail st (Printf.sprintf "expected %C" c)

let expect_kw st kw =
  let s = expect_id st in
  if s <> kw then fail st (Printf.sprintf "expected %S, got %S" kw s)

let of_string ?name src =
  let st = { toks = tokenize src; line = 1 } in
  expect_kw st "module";
  let mod_name = expect_id st in
  let d = Design.create (Option.value ~default:mod_name name) in
  let nets : (string, Design.net) Hashtbl.t = Hashtbl.create 256 in
  Hashtbl.replace nets "1'b0" Design.net_false;
  Hashtbl.replace nets "1'b1" Design.net_true;
  let outputs = ref [] in
  (* a net already driven by a cell (or a rail) or by an input port must
     not get a second driver; [line] is where the statement starts *)
  let drive ~line ?init kind ins ~out nm =
    if Design.driver_kind d out <> `Floating then
      error ~line (Printf.sprintf "net %s driven twice" nm);
    Design.add_cell_out d ?init kind ins ~out
  in
  let net_of nm =
    match Hashtbl.find_opt nets nm with
    | Some n -> n
    | None ->
        let n = Design.new_net d in
        Hashtbl.replace nets nm n;
        Design.set_net_name d n nm;
        n
  in
  (* Port list *)
  expect_punct st '(';
  let rec ports () =
    match next st with
    | Punct ')' -> ()
    | Id "input" ->
        let nm = expect_id st in
        if nm <> "CLK" then begin
          let n = Design.add_input d nm in
          Hashtbl.replace nets nm n
        end;
        ports_sep ()
    | Id "output" ->
        let nm = expect_id st in
        outputs := nm :: !outputs;
        ports_sep ()
    | _ -> fail st "bad port list"
  and ports_sep () =
    match next st with
    | Punct ',' -> ports ()
    | Punct ')' -> ()
    | _ -> fail st "bad port list separator"
  in
  ports ();
  expect_punct st ';';
  (* Body *)
  let pending_init = ref 0 in
  let rec body () =
    match next st with
    | Id "endmodule" -> ()
    | Id "wire" ->
        let nm = expect_id st in
        ignore (net_of nm);
        expect_punct st ';';
        body ()
    | Id "assign" ->
        let line = st.line in
        let lhs = expect_id st in
        expect_punct st '=';
        let rhs = expect_id st in
        expect_punct st ';';
        if List.mem lhs !outputs then Design.add_output d lhs (net_of rhs)
        else begin
          (* net alias: emit a buffer *)
          let src_net = net_of rhs in
          (match Hashtbl.find_opt nets lhs with
          | Some existing -> drive ~line Cell.Buf [| src_net |] ~out:existing lhs
          | None ->
              let out = Design.add_cell d Cell.Buf [| src_net |] in
              Hashtbl.replace nets lhs out)
        end;
        body ()
    | Attr ("init", v) ->
        pending_init := v;
        body ()
    | Id cell_name -> begin
        let line = st.line in
        match Cell.of_name cell_name with
        | None -> fail st ("unknown cell: " ^ cell_name)
        | Some kind ->
            let _inst = expect_id st in
            expect_punct st '(';
            let pins = Hashtbl.create 8 in
            let rec conns () =
              match next st with
              | Punct ')' -> ()
              | Punct '.' ->
                  let pin = expect_id st in
                  expect_punct st '(';
                  let nm = expect_id st in
                  expect_punct st ')';
                  Hashtbl.replace pins pin nm;
                  (match next st with
                  | Punct ',' -> conns ()
                  | Punct ')' -> ()
                  | _ -> fail st "bad connection list")
              | _ -> fail st "expected named connection"
            in
            conns ();
            expect_punct st ';';
            let pin nmp =
              match Hashtbl.find_opt pins nmp with
              | Some nm -> net_of nm
              | None -> error ~line ("missing pin " ^ nmp ^ " on " ^ cell_name)
            in
            (match kind with
            | Cell.Const0 | Cell.Const1 ->
                (* The design always owns its tie cells; alias the pin's
                   net name to the built-in rail instead. *)
                let rail =
                  if kind = Cell.Const0 then Design.net_false else Design.net_true
                in
                let nm =
                  match Hashtbl.find_opt pins (Cell.output_pin_name kind) with
                  | Some nm -> nm
                  | None -> error ~line ("missing output pin on " ^ cell_name)
                in
                (match Hashtbl.find_opt nets nm with
                | Some existing when existing <> rail ->
                    drive ~line Cell.Buf [| rail |] ~out:existing nm
                | Some _ -> ()
                | None -> Hashtbl.replace nets nm rail)
            | _ ->
                let ins =
                  Array.init (Cell.arity kind) (fun i ->
                      pin (Cell.input_pin_name kind i))
                in
                let out_pin = Cell.output_pin_name kind in
                let out = pin out_pin in
                let init = !pending_init = 1 in
                pending_init := 0;
                drive ~line ~init kind ins ~out (Hashtbl.find pins out_pin));
            body ()
      end
    | _ -> fail st "unexpected token in module body"
  in
  body ();
  d

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_string (really_input_string ic (in_channel_length ic)))
