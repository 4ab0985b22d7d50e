module clnlr/bench

go 1.22

require clnlr v0.0.0

replace clnlr => ../
