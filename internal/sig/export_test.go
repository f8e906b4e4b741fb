package sig

// AnswerRuns returns how many times the process-wide answer table has
// run Verify and KeyPair.Sign: the ed25519 work the memos did not save.
func AnswerRuns() (verifies, signs uint64) {
	answers.mu.Lock()
	defer answers.mu.Unlock()
	return answers.verifyRuns, answers.signRuns
}
