// Package protocol is the fixture stand-in for the runtime contract: the
// envpurity analyzer recognizes Env/Backend interfaces (and
// Register calls) in any package named "protocol", so the fixture tree
// mirrors the module's shape without importing it.
package protocol

// Backend is a runnable protocol deployment.
type Backend interface {
	Step() int
}

// Env is the execution environment protocols attach to.
type Env interface {
	Now() int64
}

// Register installs a protocol attach function under a name.
func Register(name string, attach func() Backend) {}
