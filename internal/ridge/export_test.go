package ridge

// ColumnsBuilt reports whether p has built its column layout.
func ColumnsBuilt(p *Problem) bool { return p.cols != nil }
