// Package badallow holds malformed suppression annotations; the
// suppression machinery must turn each into a diagnostic instead of
// silently accepting it.
package badallow

func missingReason() int {
	return 1 //lint:allow poolrelease
}

func unknownAnalyzer() int {
	return 2 //lint:allow nosuchanalyzer because reasons
}
