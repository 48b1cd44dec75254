(* Tainted argument from a non-rate figure: the axis changes, the
   sink does not. *)
let fig = Figures.idle_scaling
let () = print_string (Report.csv_of_series ~axis:fig.Figures.axis (Figures.run fig))
