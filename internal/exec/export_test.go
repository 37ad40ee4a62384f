package exec

// Test fixtures shared with the external exec_test package.
var (
	NewTestStore = newTestStore
	NewValsStore = newValsStore
	NumsCols     = numsCols
	ValsCols     = valsCols
)
