package hpclog_test

import (
	"os"
	"testing"
)

// TestMain closes the stores the tests of this package share — the scan
// fixture and the integration stack, each built on first use — and
// removes their directories once every test has run.
func TestMain(m *testing.M) {
	code := m.Run()
	if fix != nil {
		fix.db.Close()
		os.RemoveAll(fix.db.Config().Dir)
	}
	if theStack != nil {
		theStack.ts.Close()
		theStack.node.Close()
		os.RemoveAll(theStack.node.DB.Config().Dir)
	}
	os.Exit(code)
}
