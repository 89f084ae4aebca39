package sqlmini

// RequireSameTable is requireSameTable for the external test package.
var RequireSameTable = requireSameTable

// IdleFrames counts the scratch frames c keeps for later executions.
func IdleFrames(c *ExecCache) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.frames)
}

// StmtCacheCap and StmtPlansCap are the statement cache's bounds.
const StmtCacheCap, StmtPlansCap = stmtCacheCap, stmtPlansCap

// Statements counts the SQL texts c keeps compiled.
func Statements(c *ExecCache) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.stmts)
}
