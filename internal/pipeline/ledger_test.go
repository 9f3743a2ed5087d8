package pipeline

import (
	"fmt"

	"ffsva/internal/frame"
	"ffsva/internal/vidgen"
)

// poolLedger is the get/put counts of every free list a frame's journey
// draws on: pixel planes, pooled-frame headers and capture records.
type poolLedger [3][2]int64

// readPools reads the ledger now.
func readPools() poolLedger {
	var l poolLedger
	l[0][0], l[0][1] = frame.PoolStats()
	l[1][0], l[1][1] = frame.HeaderStats()
	l[2][0], l[2][1] = vidgen.RecordStats()
	return l
}

// ReadPools exports readPools to the package's external tests.
var ReadPools = readPools

// Unbalanced describes each free list whose gets since l differ from
// its puts, or returns "" when every list balances.
func (l poolLedger) Unbalanced() string {
	now := readPools()
	msg := ""
	for i, name := range []string{"frame planes", "frame headers", "capture records"} {
		if gets, puts := now[i][0]-l[i][0], now[i][1]-l[i][1]; gets != puts {
			msg += fmt.Sprintf("%s: %d gets, %d puts; ", name, gets, puts)
		}
	}
	return msg
}

// headersTaken reports how many frame headers were taken since l.
func (l poolLedger) headersTaken() int64 { return readPools()[1][0] - l[1][0] }
