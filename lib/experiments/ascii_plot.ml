let markers = [| '*'; '+'; 'o'; 'x'; '#'; '@' |]

let bounds series =
  let xmin = ref infinity and xmax = ref neg_infinity in
  let ymin = ref infinity and ymax = ref neg_infinity in
  List.iter
    (fun (_, pts) ->
      List.iter
        (fun (x, y) ->
          if x < !xmin then xmin := x;
          if x > !xmax then xmax := x;
          if y < !ymin then ymin := y;
          if y > !ymax then ymax := y)
        pts)
    series;
  (* Pad degenerate ranges so the mapping below stays well-defined. *)
  if !xmax <= !xmin then begin
    xmin := !xmin -. 0.5;
    xmax := !xmax +. 0.5
  end;
  if !ymax <= !ymin then begin
    ymin := !ymin -. 0.5;
    ymax := !ymax +. 0.5
  end;
  (!xmin, !xmax, !ymin, !ymax)

let render ?(width = 72) ?(height = 20) ?title ?x_label ?y_label series =
  let series = List.filter (fun (_, pts) -> pts <> []) series in
  if series = [] then "(no data)\n"
  else begin
    let xmin, xmax, ymin, ymax = bounds series in
    let canvas = Array.make_matrix height width ' ' in
    List.iteri
      (fun si (_, pts) ->
        let marker = markers.(si mod Array.length markers) in
        List.iter
          (fun (x, y) ->
            let col =
              int_of_float
                (Float.round ((x -. xmin) /. (xmax -. xmin) *. float_of_int (width - 1)))
            in
            let row =
              int_of_float
                (Float.round
                   ((y -. ymin) /. (ymax -. ymin) *. float_of_int (height - 1)))
            in
            let row = height - 1 - row in
            if row >= 0 && row < height && col >= 0 && col < width then
              canvas.(row).(col) <- marker)
          pts)
      series;
    let buf = Buffer.create ((width + 16) * (height + 6)) in
    (match title with
    | Some t ->
        Buffer.add_string buf t;
        Buffer.add_char buf '\n'
    | None -> ());
    (match y_label with
    | Some l ->
        Buffer.add_string buf l;
        Buffer.add_char buf '\n'
    | None -> ());
    let y_axis_width = 10 in
    Array.iteri
      (fun row line ->
        let label =
          if row = 0 then Printf.sprintf "%9.3g" ymax
          else if row = height - 1 then Printf.sprintf "%9.3g" ymin
          else String.make 9 ' '
        in
        Buffer.add_string buf label;
        Buffer.add_string buf " |";
        Buffer.add_string buf (String.init width (fun c -> line.(c)));
        Buffer.add_char buf '\n')
      canvas;
    Buffer.add_string buf (String.make y_axis_width ' ');
    Buffer.add_char buf '+';
    Buffer.add_string buf (String.make width '-');
    Buffer.add_char buf '\n';
    Buffer.add_string buf
      (Printf.sprintf "%s%-9.3g%s%9.3g\n" (String.make y_axis_width ' ') xmin
         (String.make (max 1 (width - 18)) ' ')
         xmax);
    (match x_label with
    | Some l ->
        Buffer.add_string buf (String.make (y_axis_width + (width / 2)) ' ');
        Buffer.add_string buf l;
        Buffer.add_char buf '\n'
    | None -> ());
    List.iteri
      (fun si (name, _) ->
        Buffer.add_string buf
          (Printf.sprintf "  %c %s\n" markers.(si mod Array.length markers) name))
      series;
    Buffer.contents buf
  end
