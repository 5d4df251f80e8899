package stats

// Ratio returns num/den as a percentage, or 0 if den == 0. It is the
// pervasive "percent of" helper for the Section 5 tables.
func Ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return 100 * float64(num) / float64(den)
}
