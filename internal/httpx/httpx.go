// Package httpx holds the HTTP response and Prometheus text-format helpers
// shared by the job service, the session manager and the cluster router,
// so the three surfaces answer errors and expose metrics byte-identically.
package httpx

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
)

// WriteJSON writes v as indented JSON under the given status code.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the status line is already out; nothing to recover
}

// Error writes the API's error body, {"error": msg}, under code.
func Error(w http.ResponseWriter, code int, msg string) {
	WriteJSON(w, code, map[string]any{"error": msg})
}

// MetricFuncs returns writers of single-sample gauge and counter families
// in the Prometheus text exposition format: each call writes the family's
// # HELP and # TYPE lines, then its one sample, value printed with %v.
func MetricFuncs(w io.Writer) (gauge, counter func(name, help string, value any)) {
	family := func(kind string) func(name, help string, value any) {
		return func(name, help string, value any) {
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %v\n", name, help, name, kind, name, value)
		}
	}
	return family("gauge"), family("counter")
}
