type severity = Info | Warning | Error

type location =
  | Net of { net : Netlist.Design.net; name : string }
  | Cell of { cell : int; kind : string; out : Netlist.Design.net; out_name : string }
  | Port of string
  | Whole_design

type t = {
  rule : string;
  severity : severity;
  loc : location;
  message : string;
}

let make ~rule ~severity ~loc message = { rule; severity; loc; message }

let net_loc d n = Net { net = n; name = Netlist.Design.net_name d n }

let cell_loc d ci =
  let c = Netlist.Design.cell d ci in
  Cell
    {
      cell = ci;
      kind = Netlist.Cell.name c.Netlist.Design.kind;
      out = c.Netlist.Design.out;
      out_name = Netlist.Design.net_name d c.Netlist.Design.out;
    }

let severity_name = function
  | Info -> "info"
  | Warning -> "warning"
  | Error -> "error"

let severity_rank = function Info -> 0 | Warning -> 1 | Error -> 2
let compare_severity a b = compare (severity_rank a) (severity_rank b)

let errors ds = List.filter (fun d -> d.severity = Error) ds

let count ds =
  List.fold_left
    (fun (e, w, i) d ->
      match d.severity with
      | Error -> (e + 1, w, i)
      | Warning -> (e, w + 1, i)
      | Info -> (e, w, i + 1))
    (0, 0, 0) ds

let pp_location ppf = function
  | Net { net; name } -> Fmt.pf ppf "net %d (%s)" net name
  | Cell { cell; kind; out; out_name } ->
      Fmt.pf ppf "cell %d (%s -> net %d %s)" cell kind out out_name
  | Port nm -> Fmt.pf ppf "port %S" nm
  | Whole_design -> Fmt.pf ppf "design"

let pp ppf d =
  Fmt.pf ppf "%s[%s]: %a: %s" (severity_name d.severity) d.rule pp_location
    d.loc d.message

let to_string d = Fmt.str "%a" pp d
