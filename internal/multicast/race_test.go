//go:build race

package multicast

// The race detector's instrumentation changes what a build allocates, so
// byte budgets are checked only without it.
func init() { raceBuild = true }
