package sqlmini

// RequireSameTable is requireSameTable for the external test package.
var RequireSameTable = requireSameTable
