let is_duration name =
  let n = String.length name in
  n >= 3 && String.sub name (n - 3) 3 = "_ns"

(* Prometheus text exposition 0.0.4. Histogram buckets are cumulative and
   end with le="+Inf"; counts/sums are plain integers. *)
let prometheus ppf metrics =
  let views = Metrics.views metrics in
  List.iter
    (fun (v : Metrics.view) ->
      if v.help <> "" then Format.fprintf ppf "# HELP %s %s@." v.name v.help;
      Format.fprintf ppf "# TYPE %s %a@." v.name Metrics.pp_kind v.kind;
      match v.kind with
      | Counter | Gauge -> Format.fprintf ppf "%s %d@." v.name v.data.(0)
      | Histogram ->
          let cum = ref 0 in
          for b = 0 to v.buckets - 1 do
            cum := !cum + v.data.(b);
            (* "+Inf" only on the final bucket: bucket 62's numeric bound
               (2^62 - 1) coincides with max_int on 64-bit OCaml, and two
               "+Inf" series would be a duplicate. *)
            if b = v.buckets - 1 then
              Format.fprintf ppf "%s_bucket{le=\"+Inf\"} %d@." v.name !cum
            else
              Format.fprintf ppf "%s_bucket{le=\"%d\"} %d@." v.name
                (Metrics.bucket_le ~buckets:v.buckets b)
                !cum
          done;
          Format.fprintf ppf "%s_sum %d@." v.name v.data.(v.buckets + 1);
          Format.fprintf ppf "%s_count %d@." v.name v.data.(v.buckets))
    views

let prometheus_string metrics = Format.asprintf "%a" prometheus metrics

let json_lines ppf metrics =
  let views = Metrics.views metrics in
  List.iter
    (fun (v : Metrics.view) ->
      match v.kind with
      | Counter | Gauge ->
          Format.fprintf ppf "{\"name\":%S,\"kind\":\"%a\",\"value\":%d}@."
            v.name Metrics.pp_kind v.kind v.data.(0)
      | Histogram ->
          Format.fprintf ppf
            "{\"name\":%S,\"kind\":\"histogram\",\"count\":%d,\"sum\":%d,\"buckets\":["
            v.name v.data.(v.buckets) v.data.(v.buckets + 1);
          let first = ref true in
          for b = 0 to v.buckets - 1 do
            if v.data.(b) <> 0 then begin
              if not !first then Format.pp_print_char ppf ',';
              first := false;
              if b = v.buckets - 1 then
                Format.fprintf ppf "[\"+Inf\",%d]" v.data.(b)
              else
                Format.fprintf ppf "[%d,%d]"
                  (Metrics.bucket_le ~buckets:v.buckets b)
                  v.data.(b)
            end
          done;
          Format.fprintf ppf "]}@.")
    views

let default_pp_duration ppf s = Format.fprintf ppf "%.6gs" s

let pp_summary ?(pp_duration = default_pp_duration) ppf metrics =
  let views = Metrics.views metrics in
  let width =
    List.fold_left
      (fun w (v : Metrics.view) -> max w (String.length v.name))
      0 views
  in
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun (v : Metrics.view) ->
      Format.fprintf ppf "%-*s  " width v.name;
      (match v.kind with
      | Counter | Gauge ->
          if is_duration v.name then
            pp_duration ppf (Clock.s_of_ns v.data.(0))
          else Format.fprintf ppf "%d" v.data.(0)
      | Histogram ->
          let count = v.data.(v.buckets) and sum = v.data.(v.buckets + 1) in
          if is_duration v.name then begin
            Format.fprintf ppf "count=%d total=%a" count pp_duration
              (Clock.s_of_ns sum);
            if count > 0 then
              Format.fprintf ppf " mean=%a" pp_duration
                (Clock.s_of_ns (sum / count))
          end
          else begin
            Format.fprintf ppf "count=%d sum=%d" count sum;
            if count > 0 then Format.fprintf ppf " mean=%.1f"
                (float_of_int sum /. float_of_int count)
          end);
      Format.fprintf ppf "@,")
    views;
  Format.fprintf ppf "@]"
